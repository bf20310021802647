//! Per-peer protocol state machines.
//!
//! Each peer runs one relay protocol (Graphene, Compact Blocks, XThin, or
//! full blocks) as a message-driven state machine: the simulator delivers a
//! decoded frame, the peer mutates its session state and emits response
//! frames. After reconstructing a block a peer announces it onward, so a
//! topology-wide run models real gossip propagation.
//!
//! # The failure-recovery ladder
//!
//! A receiver that cannot reconstruct a block climbs a bounded ladder of
//! cheaper-to-more-expensive rungs instead of looping on the same request:
//! Graphene, then inflated GrapheneRetry re-requests — or, for peers whose
//! [`Peer::policy`] enables it, the Rateless coded-cell stream against the
//! candidates the failed attempt left — then ShortIdFetch, then FullBlock.
//! The ladder itself lives in [`graphene::engine`]: every receive session
//! owns one sans-IO [`RxEngine`]; this module feeds it decoded frames and
//! timer expiries and maps its [`Step`]s onto an [`Output`], and serves the
//! other side of the exchange through the stateless [`respond`]er. What
//! stays here is what needs a network: gossip, server selection, hedging,
//! bans, resource accounting and timers — and failover: if the ladder is
//! exhausted against one server (e.g. it stalls), the session switches to
//! an alternate announcing peer and restarts at rung 1.
//!
//! # Adversarial hardening
//!
//! Inbound messages are checked against §6.2 resource caps
//! ([`MessageCaps`]), and provably hostile constructions — a cap
//! violation, or an IBLT that double-decodes (the §6.1 attack, surfaced by
//! the core as `Malformed`) — add [`MALFORMED_SCORE`] to the sender's
//! misbehavior score. At [`BAN_THRESHOLD`] the sender is banned: its
//! frames are ignored and every session it served fails over immediately.
//! Non-attributable failures (timeouts, undecodable IBLTs, wrong bodies)
//! never ban — link loss and corruption can cause all of them.
//!
//! # Adaptive failure detection
//!
//! Peers that [`Peer::enable_adaptive`] replace the fixed 2 s retry base
//! with a per-server RTO ([`crate::rtt`]), sampled from request→response
//! pairs under Karn's rule (a request that timed out never yields a
//! sample, so a tarpit cannot teach us its own slowness). When a session
//! timer fires but the ladder has not given up, the re-request is
//! *hedged*: a duplicate goes to the best alternate announcer, the first
//! response wins (`RxSession::accept_from`), and the loser's late reply
//! is silently discarded — never punished, because an unsolicited-looking
//! response may simply be the slower half of our own hedge. The same
//! non-attributable failures feed a per-peer circuit breaker
//! ([`crate::health`]) that steers failover and hedge selection away from
//! peers that keep timing out, with deterministic half-open probes.
//! Everything stays off (`adaptive = false`) by default: the fixed arm
//! keeps the fixed 2 s timer and never hedges.
//!
//! # Announcing only news
//!
//! A finished block is announced to every neighbor except the ones its
//! session already knows hold it: the server, the alternates (every peer
//! whose `Inv` reached us) and the payload's sender. A block's
//! announcement entry also remembers which neighbors it has sent an `Inv`
//! (*told*). A stale `Inv` for a held block from a neighbor not yet told
//! is answered with one `Inv`, which closes that neighbor's own
//! re-announcement chain. Only a live entry answers, and at most once per
//! neighbor, so `Inv`s cannot ping-pong.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::adversary::Behavior;
use crate::caps::MessageCaps;
use crate::health::{BreakerState, HealthTracker, MAX_HEALTH_ENTRIES};
use crate::rtt::{RttEstimate, RttTable, MAX_RTT_ENTRIES, TRACKER_ENTRY_BYTES};
use crate::time::SimTime;
use graphene::config::GrapheneConfig;
use graphene::engine::{
    build_cmpctblock, rateless_salt, respond, respond_plain, Ladder, RecoveryPolicy, RungKind,
    RxEngine, Step,
};
use graphene::NodeSnapshot;
use graphene_blockchain::{Block, Mempool, OrderingScheme, Transaction, TxId};
use graphene_hashes::Digest;
use graphene_wire::messages::{FullBlockMsg, GetTxnsMsg, InvMsg, Message, TxInvMsg, TxnsMsg};
use std::collections::{HashMap, HashSet, VecDeque};

/// Misbehavior score at which a peer is banned.
pub const BAN_THRESHOLD: u32 = 100;

/// Score for a provably malformed message (one offence bans).
pub const MALFORMED_SCORE: u32 = 100;

/// Timer-epoch flag marking a *sender-side announcement* retry timer
/// rather than a receiver-session timer. The network layer masks it off
/// before computing the backoff delay.
pub const ANN_FLAG: u32 = 1 << 31;

/// Bounded `Inv` re-announcements to neighbors that never responded — the
/// sender-side rung of the recovery ladder. Without it a single dropped or
/// corrupted announcement frame starves a peer forever (invs are one-shot
/// and nothing downstream retries them).
const MAX_ANN_RETRIES: u32 = 3;

/// Full ladder traversals (ending in a failover with no alternate left)
/// before a session is abandoned as unservable.
const MAX_LADDER_CYCLES: u32 = 2;

/// Accounted fixed overhead of one open [`RxSession`] (struct + map slots),
/// charged against the memory budget alongside its variable body bytes.
const SESSION_FIXED_BYTES: u64 = 512;

/// Accounted fixed overhead of one `pending_announcements` entry.
const PENDING_FIXED_BYTES: u64 = 64;

/// Caps on every per-peer resource. `Default` is generous enough that the
/// healthy-network simulations never hit a limit; chaos/overload sweeps
/// tighten them to exercise shedding.
#[derive(Clone, Copy, Debug)]
pub struct ResourceLimits {
    /// Concurrent receive sessions; further announcements are ignored
    /// until a slot frees (a later re-announcement reopens them).
    pub max_sessions: usize,
    /// Blocks with re-announcement timers pending at once.
    pub max_pending_announcements: usize,
    /// Orphan transaction bodies buffered per session, in bytes.
    pub max_body_bytes: u64,
    /// Remote peers whose misbehavior score is tracked.
    pub max_misbehavior_entries: usize,
    /// Inbound queue depth in frames.
    pub max_queue_frames: usize,
    /// Inbound queue depth in bytes.
    pub max_queue_bytes: u64,
    /// In-flight rateless decode state per session, in bytes (materialized
    /// cells plus the pending-participation heap). A session whose next
    /// batch would exceed this abandons the stream and falls through to
    /// short-ID fetch.
    pub max_rateless_state_bytes: u64,
    /// Per-frame processing time (0 = process instantly, the pre-chaos
    /// behavior: the queue drains in zero simulated time).
    pub proc_delay_per_frame: crate::time::SimTime,
    /// Additional processing time per KiB of frame.
    pub proc_delay_per_kb: crate::time::SimTime,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            max_sessions: 64,
            max_pending_announcements: 64,
            max_body_bytes: 4 << 20,
            max_misbehavior_entries: 256,
            max_queue_frames: 4096,
            max_queue_bytes: 64 << 20,
            max_rateless_state_bytes: 1 << 20,
            proc_delay_per_frame: crate::time::SimTime::ZERO,
            proc_delay_per_kb: crate::time::SimTime::ZERO,
        }
    }
}

impl ResourceLimits {
    /// Upper bound on [`ResourceAccounting::accounted_bytes`] implied by
    /// these caps — what the chaos sweep asserts is never exceeded.
    pub fn accounted_ceiling(&self) -> u64 {
        self.max_queue_bytes
            + self.max_sessions as u64
                * (SESSION_FIXED_BYTES + self.max_body_bytes + self.max_rateless_state_bytes)
            + self.max_pending_announcements as u64 * PENDING_FIXED_BYTES
            // Adaptive failure-detection state: the RTT table, the breaker
            // table, and at most two in-flight request stamps (primary +
            // hedge) per session. All three are capped, so the ceiling
            // holds whether or not adaptive detection is enabled.
            + (MAX_RTT_ENTRIES + MAX_HEALTH_ENTRIES + 2 * self.max_sessions) as u64
                * TRACKER_ENTRY_BYTES
    }

    /// Simulated time to process one inbound frame of `bytes` bytes.
    pub fn proc_time(&self, bytes: usize) -> crate::time::SimTime {
        crate::time::SimTime(
            self.proc_delay_per_frame.0
                + self.proc_delay_per_kb.0.saturating_mul(bytes as u64) / 1024,
        )
    }
}

/// Point-in-time resource usage of one peer, in accounted bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceAccounting {
    /// Frames waiting in the inbound queue.
    pub queue_frames: usize,
    /// Bytes waiting in the inbound queue.
    pub queue_bytes: u64,
    /// Open receive sessions.
    pub sessions: usize,
    /// Orphan body bytes buffered across all sessions.
    pub body_bytes: u64,
    /// Blocks with re-announcement timers pending.
    pub pending_announcements: usize,
    /// In-flight rateless decode state across all sessions (volatile,
    /// like the sessions that own it).
    pub rateless_state_bytes: u64,
    /// Adaptive failure-detection state: RTT estimates, breaker entries
    /// and in-flight request stamps (zero when adaptive is off).
    pub tracker_bytes: u64,
    /// Highest accounted-byte total ever observed at this peer.
    pub hwm_bytes: u64,
    /// Inbound frames shed by the load-shedding policy (lifetime).
    pub shed_frames: u64,
}

impl ResourceAccounting {
    /// Total accounted memory right now.
    pub fn accounted_bytes(&self) -> u64 {
        self.queue_bytes
            + self.sessions as u64 * SESSION_FIXED_BYTES
            + self.body_bytes
            + self.pending_announcements as u64 * PENDING_FIXED_BYTES
            + self.rateless_state_bytes
            + self.tracker_bytes
    }
}

/// Load-shedding class of an inbound frame. Announcements are droppable
/// (the bounded re-announcement timer re-sends them); recovery frames of
/// an *active* session are never shed — dropping one would stall a
/// session that already paid for its request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameClass {
    /// `Inv`/`TxInv`: cheapest to shed, retransmitted by design.
    Announcement,
    /// Block payload or repair data for an open session.
    ActiveRecovery,
    /// Everything else (requests we serve, unsolicited payloads).
    Other,
}

/// Peer identifier (index into the network's peer table).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub usize);

/// Which relay protocol a peer speaks.
#[derive(Clone, Debug)]
pub enum RelayProtocol {
    /// Graphene Protocols 1 + 2.
    Graphene(GrapheneConfig),
    /// BIP152 Compact Blocks.
    CompactBlocks,
    /// BUIP010 XThin.
    Xthin {
        /// FPR of the receiver's mempool filter.
        filter_fpr: f64,
    },
    /// Uncompressed blocks.
    FullBlocks,
}

/// What [`RxSession::accept_from`] decided about a response's sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HedgeOutcome {
    /// The current server answered; no hedge was outstanding.
    Normal,
    /// The current server answered first; the outstanding hedge was wasted.
    PrimaryWon,
    /// The hedge target answered first and is promoted to server.
    HedgeWon,
}

/// Receiver-side session state for one block.
struct RxSession {
    server: PeerId,
    /// Other peers that announced this block; failover candidates.
    alternates: Vec<PeerId>,
    /// Outstanding hedged-fetch target: a second server the current rung's
    /// request was duplicated to. First response wins; the loser's late
    /// reply is discarded without punishment.
    hedge: Option<PeerId>,
    /// Timer epoch: bumped whenever the session advances, so stale timers
    /// are recognised and ignored.
    attempt: u32,
    /// The recovery ladder against the current server.
    engine: RxEngine,
    /// Full ladder traversals completed (each ends in a failover attempt).
    cycles: u32,
    /// Bodies collected during the session (prefilled, missing, fetched).
    bodies: HashMap<TxId, Transaction>,
    /// Accounted bytes in `bodies` (kept incrementally; capped by
    /// [`ResourceLimits::max_body_bytes`]).
    body_bytes: u64,
}

impl RxSession {
    fn new(server: PeerId, engine: RxEngine) -> RxSession {
        RxSession {
            server,
            alternates: Vec::new(),
            hedge: None,
            attempt: 0,
            engine,
            cycles: 0,
            bodies: HashMap::new(),
            body_bytes: 0,
        }
    }

    /// Buffer a transaction body, respecting the orphan-body cap. A body
    /// past the cap is dropped — the session can still finish from the
    /// mempool, or the ladder's full-block rung re-ships everything.
    fn add_body(&mut self, limits: &ResourceLimits, tx: &Transaction) {
        if self.bodies.contains_key(tx.id()) {
            return;
        }
        let sz = tx.size() as u64;
        if self.body_bytes + sz > limits.max_body_bytes {
            return;
        }
        self.body_bytes += sz;
        self.bodies.insert(*tx.id(), tx.clone());
    }

    /// Advance the timer epoch, clamped below [`ANN_FLAG`]: a session
    /// epoch must never reach the announcement-flag bit, or its timer
    /// would be misrouted to `announce_timeout` when it fires.
    fn bump_epoch(&mut self) {
        self.attempt = (self.attempt + 1) & (ANN_FLAG - 1);
    }

    /// First-response-wins arbitration for a block-payload message from
    /// `from`. `None` means the response is neither from the current
    /// server nor the outstanding hedge — unsolicited, or the losing half
    /// of a resolved hedge — and must be silently discarded (never
    /// punished: it can be our own late hedge reply).
    fn accept_from(&mut self, from: PeerId) -> Option<HedgeOutcome> {
        if from == self.server {
            return Some(if self.hedge.take().is_some() {
                HedgeOutcome::PrimaryWon
            } else {
                HedgeOutcome::Normal
            });
        }
        if self.hedge == Some(from) {
            // Promote the hedge: it answered first. The old server stays
            // available as a failover candidate.
            let old = self.server;
            self.server = from;
            self.hedge = None;
            if !self.alternates.contains(&old) {
                self.alternates.push(old);
            }
            return Some(HedgeOutcome::HedgeWon);
        }
        None
    }
}

/// A block's announcement entry, kept while re-announcements are pending.
/// It counts against [`ResourceLimits::max_pending_announcements`] and is
/// charged [`PENDING_FIXED_BYTES`], told marks included.
struct Announcement {
    /// Neighbors that have not yet asked for the block or shown they hold
    /// it, re-inv'd on a bounded backoff timer; under adaptive fan-out
    /// also the ones a later wave has yet to reach. `Vec` keeps iteration
    /// order deterministic.
    pending: Vec<PeerId>,
    /// Neighbors sent an `Inv` for the block, for whatever reason. A stale
    /// `Inv` from one of them is never answered.
    told: Vec<PeerId>,
}

/// Queue an `Inv` for `block_id` to `n` and mark `n` told.
fn tell(told: &mut Vec<PeerId>, block_id: Digest, n: PeerId, out: &mut Output) {
    if !told.contains(&n) {
        told.push(n);
    }
    out.send.push((n, Message::Inv(InvMsg { block_id })));
}

/// Gossip fan-out policy for block announcements.
///
/// [`FanoutPolicy::Flood`], the default, announces every completed block
/// at once to every neighbor not known to hold it, and re-invs every
/// un-acknowledged neighbor on each retry. At internet scale that is
/// wasteful — a Barabási–Albert hub with a thousand neighbors floods a
/// thousand `Inv`s for a block most neighbors are about to hear of anyway.
/// [`FanoutPolicy::Adaptive`] announces to a small deterministic first
/// wave and *escalates aggression on stall* (the polkadot
/// approval-distribution idiom): each re-announcement timer that fires
/// with neighbors still unacknowledged doubles the wave, and the final
/// retry before the give-up bound covers every remaining neighbor, so
/// the bounded-retry delivery guarantee is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FanoutPolicy {
    /// Announce to all neighbors immediately (the default).
    Flood,
    /// Announce to `initial` neighbors, doubling the wave on each stalled
    /// retry and covering everyone by the last one.
    Adaptive {
        /// First-wave size (clamped to at least 1).
        initial: usize,
    },
}

impl FanoutPolicy {
    /// Wave size for retry round `retry` (0 = the initial announcement).
    /// `Flood` always covers everything; `Adaptive` doubles per round and
    /// goes all-in on the final round before [`MAX_ANN_RETRIES`] ends the
    /// chain.
    fn wave(&self, retry: u32, remaining: usize) -> usize {
        match *self {
            FanoutPolicy::Flood => remaining,
            FanoutPolicy::Adaptive { initial } => {
                if retry + 1 >= MAX_ANN_RETRIES {
                    remaining
                } else {
                    initial.max(1).saturating_mul(1 << retry.min(16)).min(remaining)
                }
            }
        }
    }
}

/// SplitMix64 finalizer used to rotate adaptive fan-out waves — a pure
/// function of `(peer, block)`, never a shared RNG, so wave selection
/// cannot perturb thread-count determinism.
fn fanout_mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A simulated peer.
pub struct Peer {
    /// This peer's ID.
    pub id: PeerId,
    /// Relay protocol spoken.
    pub protocol: RelayProtocol,
    /// Local transaction pool.
    pub mempool: Mempool,
    /// Honest or adversarial serving behavior.
    pub behavior: Behavior,
    /// §6.2 caps applied to every inbound message.
    pub caps: MessageCaps,
    /// Per-peer resource caps (queue depth, sessions, bodies, …).
    pub limits: ResourceLimits,
    /// Recovery-ladder knobs handed to every receive session's engine.
    /// The default is the seed ladder; rateless sweeps set
    /// [`RecoveryPolicy::rateless`] for the "no retry cliff" ladder.
    pub policy: RecoveryPolicy,
    blocks: HashMap<Digest, Block>,
    sessions: HashMap<Digest, RxSession>,
    /// Transaction IDs already announced/seen (loose-tx relay, §2.2).
    seen_tx_inv: HashSet<TxId>,
    /// One entry per block with re-announcements pending.
    pending_announcements: HashMap<Digest, Announcement>,
    /// Accumulated misbehavior per remote peer.
    misbehavior: HashMap<PeerId, u32>,
    banned: HashSet<PeerId>,
    /// Adversarial decision counter (deterministic mangling stream).
    adv_nonce: u64,
    /// Adaptive failure detection: RTO-derived timers, hedged fetches and
    /// the per-peer circuit breaker (off = the seed's fixed 2 s timer).
    adaptive: bool,
    /// Simulated now, set by the network before each handle call (only
    /// consumed by the adaptive machinery; zero otherwise).
    now: SimTime,
    /// Per-server smoothed RTT estimates (adaptive only; volatile).
    rtt: RttTable,
    /// Circuit breaker over non-attributable failures (adaptive only;
    /// entries volatile, lifetime counters kept for metrics).
    health: HealthTracker,
    /// In-flight request stamps: (block, server) → send time. Karn's
    /// rule: a stamp consumed by a timeout never yields an RTT sample.
    req_sent: HashMap<(Digest, PeerId), SimTime>,
    /// Lifetime hedged-fetch counters (issued / won / wasted).
    hedges_issued: u64,
    hedges_won: u64,
    hedges_wasted: u64,
    /// Block-announcement fan-out policy (flood by default).
    fanout: FanoutPolicy,
    /// Bounded inbound frame queue: (sender, decoded message, frame bytes).
    inbox: VecDeque<(PeerId, Message, usize)>,
    /// Bytes currently queued in `inbox`.
    inbox_bytes: u64,
    /// Lifetime count of shed inbound frames.
    shed_frames: u64,
    /// High-water mark of accounted memory.
    hwm_bytes: u64,
}

/// Frames to transmit plus timers to arm and events for metrics.
#[derive(Default)]
pub struct Output {
    /// (destination, message) pairs to send.
    pub send: Vec<(PeerId, Message)>,
    /// (destination, message, extra delay) triples a tarpit adversary
    /// holds back before transmission: the network dispatches them like
    /// `send` but adds the delay to the scheduled delivery time.
    pub send_delayed: Vec<(PeerId, Message, SimTime)>,
    /// Retry timers to arm: (block, timer epoch).
    pub timers: Vec<(Digest, u32)>,
    /// Set when this peer just completed a block (for metrics).
    pub completed_block: Option<Digest>,
    /// Peers newly banned while handling this input.
    pub banned: Vec<PeerId>,
    /// Sessions that switched to an alternate server.
    pub failovers: u32,
    /// Ladder-rung escalations performed.
    pub escalations: u32,
}

impl Output {
    fn none() -> Output {
        Output::default()
    }

    fn absorb(&mut self, other: Output) {
        self.send.extend(other.send);
        self.send_delayed.extend(other.send_delayed);
        self.timers.extend(other.timers);
        self.completed_block = self.completed_block.or(other.completed_block);
        self.banned.extend(other.banned);
        self.failovers += other.failovers;
        self.escalations += other.escalations;
    }
}

impl Peer {
    /// Create a peer.
    pub fn new(id: PeerId, protocol: RelayProtocol, mempool: Mempool) -> Peer {
        Peer {
            id,
            protocol,
            mempool,
            behavior: Behavior::Honest,
            caps: MessageCaps::default(),
            limits: ResourceLimits::default(),
            policy: RecoveryPolicy::default(),
            blocks: HashMap::new(),
            sessions: HashMap::new(),
            seen_tx_inv: HashSet::new(),
            pending_announcements: HashMap::new(),
            misbehavior: HashMap::new(),
            banned: HashSet::new(),
            adv_nonce: 0,
            adaptive: false,
            now: SimTime::ZERO,
            rtt: RttTable::new(MAX_RTT_ENTRIES),
            health: HealthTracker::new(MAX_HEALTH_ENTRIES),
            req_sent: HashMap::new(),
            hedges_issued: 0,
            hedges_won: 0,
            hedges_wasted: 0,
            fanout: FanoutPolicy::Flood,
            inbox: VecDeque::new(),
            inbox_bytes: 0,
            shed_frames: 0,
            hwm_bytes: 0,
        }
    }

    /// Does this peer hold `block_id`?
    pub fn has_block(&self, block_id: &Digest) -> bool {
        self.blocks.contains_key(block_id)
    }

    /// Fetch a held block.
    pub fn block(&self, block_id: &Digest) -> Option<&Block> {
        self.blocks.get(block_id)
    }

    /// Has this peer banned `peer`?
    pub fn is_banned(&self, peer: PeerId) -> bool {
        self.banned.contains(&peer)
    }

    /// Accumulated misbehavior score for `peer`.
    pub fn misbehavior_score(&self, peer: PeerId) -> u32 {
        self.misbehavior.get(&peer).copied().unwrap_or(0)
    }

    /// Current ladder rung of the session for `block_id`, if one is open.
    pub fn session_rung(&self, block_id: &Digest) -> Option<RungKind> {
        self.sessions.get(block_id).map(|s| s.engine.rung())
    }

    /// Number of open receive sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Number of blocks with re-announcement timers pending.
    pub fn pending_announcement_count(&self) -> usize {
        self.pending_announcements.len()
    }

    /// Number of remote peers with a tracked misbehavior score.
    pub fn misbehavior_entries(&self) -> usize {
        self.misbehavior.len()
    }

    /// Announced peer list for `block_id` awaiting acknowledgement (test
    /// and invariant-checking hook).
    pub fn pending_announcement(&self, block_id: &Digest) -> Option<&[PeerId]> {
        self.pending_announcements.get(block_id).map(|a| a.pending.as_slice())
    }

    /// Set the block-announcement fan-out policy. The default is
    /// [`FanoutPolicy::Flood`]; internet-scale sweeps opt into
    /// [`FanoutPolicy::Adaptive`].
    pub fn set_fanout(&mut self, policy: FanoutPolicy) {
        self.fanout = policy;
    }

    /// Frames currently queued in the bounded inbox (mirrored by the
    /// network's SoA arena so the dispatch loop can skip spurious drains
    /// without touching this struct).
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Turn on adaptive failure detection: RTO-derived retry timers from
    /// per-server RTT estimates, hedged fetches when the timer fires with
    /// an alternate announcer available, and circuit-breaker-steered
    /// server selection. Off by default (the seed's fixed 2 s timer);
    /// latency sweeps opt in.
    pub fn enable_adaptive(&mut self) {
        self.adaptive = true;
    }

    /// Whether adaptive failure detection is enabled.
    pub fn adaptive_enabled(&self) -> bool {
        self.adaptive
    }

    /// Advance this peer's view of simulated time. The network calls this
    /// before dispatching each message or timeout so RTT samples and
    /// breaker cool-downs read a consistent clock.
    pub fn set_clock(&mut self, now: SimTime) {
        self.now = now;
    }

    /// The RTO-derived first-attempt timeout for `block_id`'s current
    /// server, or `None` when adaptive detection is off (or no session is
    /// open) — the network then falls back to the fixed [`crate::backoff::BASE`].
    pub fn rto_hint(&self, block_id: &Digest) -> Option<SimTime> {
        if !self.adaptive {
            return None;
        }
        self.sessions.get(block_id).map(|s| self.rtt.rto(s.server))
    }

    /// The RTT estimate held against `server`, if any (test/metrics hook).
    pub fn rtt_estimate(&self, server: PeerId) -> Option<RttEstimate> {
        self.rtt.estimate(server)
    }

    /// The breaker state of `server` at this peer's current clock.
    pub fn breaker_state(&self, server: PeerId) -> BreakerState {
        self.health.state(server, self.now)
    }

    /// Lifetime hedged-fetch counters: (issued, won, wasted).
    pub fn hedge_stats(&self) -> (u64, u64, u64) {
        (self.hedges_issued, self.hedges_won, self.hedges_wasted)
    }

    /// Lifetime circuit-breaker counters: (trips, half-open probes).
    pub fn breaker_stats(&self) -> (u64, u64) {
        (self.health.trips(), self.health.probes())
    }

    /// Current resource usage, for metrics and cap assertions.
    pub fn accounting(&self) -> ResourceAccounting {
        ResourceAccounting {
            queue_frames: self.inbox.len(),
            queue_bytes: self.inbox_bytes,
            sessions: self.sessions.len(),
            body_bytes: self.sessions.values().map(|s| s.body_bytes).sum(),
            pending_announcements: self.pending_announcements.len(),
            rateless_state_bytes: self
                .sessions
                .values()
                .map(|s| s.engine.rateless_state_bytes().unwrap_or(0))
                .sum(),
            tracker_bytes: (self.rtt.len() + self.health.len() + self.req_sent.len()) as u64
                * TRACKER_ENTRY_BYTES,
            hwm_bytes: self.hwm_bytes,
            shed_frames: self.shed_frames,
        }
    }

    /// Fold the current accounted total into the high-water mark.
    fn note_usage(&mut self) {
        let mut acct = self.accounting();
        acct.hwm_bytes = 0;
        self.hwm_bytes = self.hwm_bytes.max(acct.accounted_bytes());
    }

    // --- Bounded inbound queue --------------------------------------------

    /// Load-shedding class of `msg` given this peer's open sessions.
    fn classify(&self, msg: &Message) -> FrameClass {
        match msg {
            // Cell windows are droppable by design: the stream is
            // deterministic and the session's timer re-requests the same
            // window, so under pressure they shed with the announcements
            // rather than crowding out non-replayable recovery frames.
            Message::Inv(_) | Message::TxInv(_) | Message::RatelessCells(_) => {
                FrameClass::Announcement
            }
            _ => match msg.response_block_id() {
                Some(id) if self.sessions.contains_key(&id) => FrameClass::ActiveRecovery,
                _ => FrameClass::Other,
            },
        }
    }

    /// Append a decoded frame to the bounded inbound queue, shedding under
    /// pressure: oldest announcement-class frames first, then oldest
    /// `Other` frames; an active session's recovery frames are never shed.
    /// Returns the number of frames shed (for metrics).
    pub fn enqueue(&mut self, from: PeerId, msg: Message, bytes: usize) -> u64 {
        let mut shed = 0u64;
        self.inbox.push_back((from, msg, bytes));
        self.inbox_bytes += bytes as u64;
        while self.inbox.len() > self.limits.max_queue_frames
            || self.inbox_bytes > self.limits.max_queue_bytes
        {
            let victim = self
                .inbox
                .iter()
                .position(|(_, m, _)| self.classify(m) == FrameClass::Announcement)
                .or_else(|| {
                    self.inbox.iter().position(|(_, m, _)| self.classify(m) == FrameClass::Other)
                });
            let Some(idx) = victim else {
                // Everything queued (including the newcomer) is protected
                // recovery traffic; the caps are sized so an honest load
                // never gets here, but a hard cap must hold regardless —
                // drop the newest arrival.
                if let Some((_, _, b)) = self.inbox.pop_back() {
                    self.inbox_bytes -= b as u64;
                    shed += 1;
                }
                break;
            };
            if let Some((_, _, b)) = self.inbox.remove(idx) {
                self.inbox_bytes -= b as u64;
                shed += 1;
            }
        }
        self.shed_frames += shed;
        self.note_usage();
        shed
    }

    /// Pop the oldest queued frame for processing.
    pub fn dequeue(&mut self) -> Option<(PeerId, Message, usize)> {
        let (from, msg, bytes) = self.inbox.pop_front()?;
        self.inbox_bytes -= bytes as u64;
        Some((from, msg, bytes))
    }

    // --- Crash/restart ----------------------------------------------------

    /// Capture the durable state a real node persists: mempool and
    /// accepted blocks. Everything else — in-flight sessions, queued
    /// frames, announcement bookkeeping, misbehavior scores — is volatile
    /// and lost in a crash.
    pub fn snapshot(&self) -> NodeSnapshot {
        let mut blocks: Vec<Block> = self.blocks.values().cloned().collect();
        blocks.sort_by_key(|b| b.id());
        NodeSnapshot { mempool: self.mempool.clone(), blocks }
    }

    /// Rebuild after a crash from the durable snapshot. Volatile state is
    /// re-derived where possible (tx-inv suppression from the mempool) and
    /// cleared otherwise; sessions are re-established through the ordinary
    /// re-announcement path when a neighbor
    /// [`handshake`](Self::handshake)s or re-invs.
    pub fn restore(&mut self, snapshot: NodeSnapshot) {
        self.mempool = snapshot.mempool;
        self.blocks = snapshot.blocks.into_iter().map(|b| (b.id(), b)).collect();
        self.sessions.clear();
        self.seen_tx_inv = self.mempool.txns().iter().map(Transaction::id).copied().collect();
        self.pending_announcements.clear();
        self.misbehavior.clear();
        self.banned.clear();
        self.inbox.clear();
        self.inbox_bytes = 0;
        // Failure-detector state is volatile too: a restarted node
        // re-learns RTTs and peer health from scratch.
        self.req_sent.clear();
        self.rtt.clear();
        self.health.clear();
    }

    /// Reconnect handshake with `neighbor`: announce every held block (a
    /// compressed model of the header/inv exchange real nodes perform on
    /// connect). The bounded re-announcement timer backs each `Inv`, so a
    /// neighbor that lost the block mid-crash re-learns it even across
    /// further frame loss.
    pub fn handshake(&mut self, neighbor: PeerId) -> Output {
        let mut out = Output::none();
        if self.banned.contains(&neighbor) {
            return out;
        }
        let mut held: Vec<Digest> = self.blocks.keys().copied().collect();
        held.sort();
        for block_id in held {
            self.announce(block_id, &[neighbor], &mut out);
        }
        self.note_usage();
        out
    }

    /// Is a timer with epoch `attempt` for `block_id` still live? The
    /// network drops stale timers on pop instead of dispatching no-ops.
    pub fn timer_current(&self, block_id: &Digest, attempt: u32) -> bool {
        if attempt & ANN_FLAG != 0 {
            self.pending_announcements.contains_key(block_id)
        } else {
            self.sessions.get(block_id).is_some_and(|s| s.attempt == attempt)
        }
    }

    /// Give this peer a block directly (the origin of a propagation run)
    /// and announce it to `neighbors`.
    pub fn originate(&mut self, block: Block, neighbors: &[PeerId]) -> Output {
        let id = block.id();
        self.mempool.confirm(&block.ids());
        self.blocks.insert(id, block);
        let mut out = Output::none();
        self.announce(id, neighbors, &mut out);
        out
    }

    /// Send `Inv`s for `block_id` to `neighbors` and arm the bounded
    /// re-announcement timer guarding against lost announcement frames.
    /// Deduped on insert (a re-announcement of the same block to the same
    /// neighbor must not double-track it) and capped: past
    /// [`ResourceLimits::max_pending_announcements`] the `Inv`s still go
    /// out but un-acknowledged neighbors are not re-inv'd.
    ///
    /// Under [`FanoutPolicy::Flood`] (the default) every neighbor gets an
    /// `Inv` now. Under [`FanoutPolicy::Adaptive`] only a first wave
    /// does — rotated deterministically by `(peer, block)` so different
    /// blocks from the same hub fan toward different neighbors — and
    /// [`announce_timeout`](Self::announce_timeout) escalates from there.
    fn announce(&mut self, block_id: Digest, neighbors: &[PeerId], out: &mut Output) {
        if neighbors.is_empty() {
            return;
        }
        let flood = self.fanout == FanoutPolicy::Flood;
        // Adaptive fan-out tracks every neighbor as pending (an un-inv'd
        // neighbor is "stalled by construction" and picked up by a later
        // wave) but only invs a first wave now.
        if let Some(Announcement { pending, told }) = self.pending_announcements.get_mut(&block_id)
        {
            // Timer chain already armed; just merge the targets.
            let merge_from = pending.len();
            for &n in neighbors {
                if !pending.contains(&n) {
                    pending.push(n);
                }
            }
            let wave = if flood {
                neighbors
            } else {
                let wave = self.fanout.wave(0, pending.len() - merge_from);
                &pending[merge_from..merge_from + wave]
            };
            for &n in wave {
                tell(told, block_id, n, out);
            }
            return;
        }
        let mut targets: Vec<PeerId> = Vec::with_capacity(neighbors.len());
        for &n in neighbors {
            if !targets.contains(&n) {
                targets.push(n);
            }
        }
        let inv = |&n: &PeerId| (n, Message::Inv(InvMsg { block_id }));
        if self.pending_announcements.len() >= self.limits.max_pending_announcements {
            // No tracking slot means no escalation timer and nobody marked
            // told: inv everyone now so nobody is left un-announced.
            out.send.extend(targets.iter().map(inv));
            return;
        }
        if !flood {
            // The rotation is a pure function of (peer, block) — no shared
            // RNG, so runs stay byte-identical at any thread count.
            let rot = (fanout_mix(self.id.0 as u64 ^ block_id.low_u64()) as usize) % targets.len();
            targets.rotate_left(rot);
        }
        let told = targets[..self.fanout.wave(0, targets.len())].to_vec();
        out.send.extend(told.iter().map(inv));
        self.pending_announcements.insert(block_id, Announcement { pending: targets, told });
        out.timers.push((block_id, ANN_FLAG));
    }

    /// Any block-specific message from `from` proves the announcement got
    /// through (they are requesting it, or they hold it themselves).
    fn acknowledge_announcement(&mut self, from: PeerId, msg: &Message) {
        let block_id = match msg {
            Message::Inv(m) => m.block_id,
            _ => match msg.request_block_id() {
                Some(id) => id,
                None => return,
            },
        };
        if let Some(entry) = self.pending_announcements.get_mut(&block_id) {
            entry.pending.retain(|p| *p != from);
            if entry.pending.is_empty() {
                self.pending_announcements.remove(&block_id);
            }
        }
    }

    /// Handle one delivered message.
    pub fn handle(&mut self, from: PeerId, msg: Message, neighbors: &[PeerId]) -> Output {
        if self.banned.contains(&from) {
            return Output::none();
        }
        self.acknowledge_announcement(from, &msg);
        if self.caps.validate(&msg).is_err() {
            // §6.2: a cap violation is a provable offence — honest encodes
            // never approach the limits and the wire layer's exact-length
            // checks keep corruption from forging one.
            return self.punish(from, MALFORMED_SCORE);
        }
        self.observe_response(from, &msg);
        let out = match msg {
            Message::Inv(m) => self.on_inv(from, m),
            Message::TxInv(m) => self.on_tx_inv(from, m),
            Message::GetTxns(m) => self.on_get_txns(from, m),
            Message::Txns(m) => self.on_txns(m, neighbors),
            req if req.request_block_id().is_some() => self.on_request(from, req),
            resp => self.on_response(from, resp, neighbors),
        };
        self.note_requests(&out);
        let out = self.mangle_output(out);
        self.note_usage();
        out
    }

    // --- Adaptive failure detection ---------------------------------------

    /// If `msg` answers a stamped in-flight request, fold the measured
    /// round trip into the RTT table and close `from`'s breaker circuit.
    /// Karn's rule makes this safe: [`request`](Self::request) removes
    /// the stamp on timeout, so a reply that arrives *after* its timer
    /// fired matches nothing — it neither pollutes the RTT estimate with
    /// a retransmission-ambiguous sample nor resets the failure streak.
    fn observe_response(&mut self, from: PeerId, msg: &Message) {
        if !self.adaptive {
            return;
        }
        let Some(block_id) = msg.response_block_id() else {
            return;
        };
        if let Some(t0) = self.req_sent.remove(&(block_id, from)) {
            self.rtt.observe(from, self.now - t0);
            self.health.note_success(from);
        }
    }

    /// Stamp every outgoing block request in `out` with the current clock
    /// so the matching response yields an RTT sample. Stamps for sessions
    /// that no longer exist are swept, and the table is capped at twice
    /// the session limit with deterministic oldest-first eviction.
    fn note_requests(&mut self, out: &Output) {
        if !self.adaptive {
            return;
        }
        let sessions = &self.sessions;
        self.req_sent.retain(|(block_id, _), _| sessions.contains_key(block_id));
        for (to, msg) in &out.send {
            if let Some(block_id) = msg.request_block_id() {
                if self.sessions.contains_key(&block_id) {
                    let cap = 2 * self.limits.max_sessions;
                    if self.req_sent.len() >= cap && !self.req_sent.contains_key(&(block_id, *to)) {
                        if let Some(victim) = self
                            .req_sent
                            .iter()
                            .map(|(&(d, p), &t)| (t, d, p.0, (d, p)))
                            .min()
                            .map(|(_, _, _, k)| k)
                        {
                            self.req_sent.remove(&victim);
                        }
                    }
                    self.req_sent.insert((block_id, *to), self.now);
                }
            }
        }
    }

    /// The healthiest non-banned entry of `alternates` other than `skip`,
    /// as `(breaker rank, index)`: closed < half-open < open, ties broken
    /// by announcement order.
    fn healthiest(&self, alternates: &[PeerId], skip: Option<PeerId>) -> Option<(u8, usize)> {
        let rank = |cand| match self.health.state(cand, self.now) {
            BreakerState::Closed => 0u8,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        };
        (alternates.iter().enumerate())
            .filter(|(_, cand)| Some(**cand) != skip && !self.banned.contains(cand))
            .map(|(idx, &cand)| (rank(cand), idx))
            .min()
    }

    /// Pick the best hedge target for `block_id`'s session: the alternate
    /// announcer with the healthiest breaker state (closed < half-open <
    /// open, ties broken by announcement order), skipping banned peers and
    /// the current server. Marks the session hedged and counts a probe
    /// when the pick was half-open.
    fn pick_hedge(&mut self, block_id: &Digest) -> Option<PeerId> {
        let (server, alternates) = {
            let s = self.sessions.get(block_id)?;
            if s.hedge.is_some() {
                return None; // one hedge in flight is enough
            }
            (s.server, s.alternates.clone())
        };
        let (rank, idx) = self.healthiest(&alternates, Some(server))?;
        let pick = alternates[idx];
        if rank == 1 {
            self.health.note_probe(pick);
        }
        if let Some(s) = self.sessions.get_mut(block_id) {
            s.hedge = Some(pick);
        }
        Some(pick)
    }

    /// Apply adversarial mangling to outgoing frames, if configured. A
    /// tarpit adversary reroutes surviving responses through
    /// `send_delayed`, holding each back just long enough to look slow
    /// without ever provably misbehaving.
    fn mangle_output(&mut self, mut out: Output) -> Output {
        if let Behavior::Adversarial(cfg) = &self.behavior {
            let mut kept = Vec::with_capacity(out.send.len());
            let mut delayed = Vec::new();
            for (to, msg) in out.send {
                let nonce = self.adv_nonce;
                self.adv_nonce += 1;
                if let Some(m) = cfg.mangle(nonce, msg) {
                    if let Some(extra) = cfg.tarpit_delay(nonce, &m) {
                        delayed.push((to, m, extra));
                    } else {
                        kept.push((to, m));
                    }
                }
            }
            out.send = kept;
            out.send_delayed.extend(delayed);
        }
        out
    }

    /// Inject freshly authored transactions at this peer (the origin of
    /// loose-transaction gossip) and announce them to `neighbors`.
    pub fn originate_txns(&mut self, txns: Vec<Transaction>, neighbors: &[PeerId]) -> Output {
        let mut fresh = Vec::new();
        for tx in txns {
            if self.seen_tx_inv.insert(*tx.id()) {
                fresh.push(*tx.id());
            }
            self.mempool.insert(tx);
        }
        let mut out = Output::none();
        if !fresh.is_empty() {
            for &n in neighbors {
                out.send.push((n, Message::TxInv(TxInvMsg { txids: fresh.clone() })));
            }
        }
        out
    }

    fn on_tx_inv(&mut self, from: PeerId, m: TxInvMsg) -> Output {
        // Request every announced transaction we do not hold yet, even if a
        // previous announcement was already seen: on lossy links the earlier
        // getdata/tx exchange may have been dropped, and a later inv from
        // another neighbor is the only recovery path. `seen_tx_inv` still
        // suppresses re-relaying, so this cannot loop.
        let wanted: Vec<TxId> = m
            .txids
            .into_iter()
            .filter(|id| {
                self.seen_tx_inv.insert(*id);
                !self.mempool.contains(id)
            })
            .collect();
        let mut out = Output::none();
        if !wanted.is_empty() {
            out.send.push((from, Message::GetTxns(GetTxnsMsg { txids: wanted })));
        }
        out
    }

    fn on_get_txns(&mut self, from: PeerId, m: GetTxnsMsg) -> Output {
        let txns: Vec<Transaction> =
            m.txids.iter().filter_map(|id| self.mempool.get(id).cloned()).collect();
        let mut out = Output::none();
        if !txns.is_empty() {
            out.send.push((from, Message::Txns(TxnsMsg { txns })));
        }
        out
    }

    fn on_txns(&mut self, m: TxnsMsg, neighbors: &[PeerId]) -> Output {
        let mut fresh = Vec::new();
        for tx in m.txns {
            if !self.mempool.contains(tx.id()) {
                fresh.push(*tx.id());
                self.seen_tx_inv.insert(*tx.id());
                self.mempool.insert(tx);
            }
        }
        let mut out = Output::none();
        if !fresh.is_empty() {
            // Relay onward (the announce-to-all, request-if-new gossip of §2.2).
            for &n in neighbors {
                out.send.push((n, Message::TxInv(TxInvMsg { txids: fresh.clone() })));
            }
        }
        out
    }

    /// Handle a retry timer. `attempt` is the epoch the timer guarded; a
    /// session that advanced meanwhile ignores the stale timer.
    pub fn handle_timeout(&mut self, block_id: Digest, attempt: u32) -> Output {
        let out = if attempt & ANN_FLAG != 0 {
            self.announce_timeout(block_id, attempt & !ANN_FLAG)
        } else {
            match self.sessions.get_mut(&block_id) {
                Some(session) if session.attempt == attempt => {
                    let before = session.engine.rung();
                    let step = session.engine.on_timeout(&self.mempool);
                    self.request(block_id, before, step)
                }
                // Completed meanwhile, or the session advanced: stale timer.
                _ => return Output::none(),
            }
        };
        let out = self.mangle_output(out);
        self.note_usage();
        out
    }

    /// Re-announce to neighbors that never reacted to our `Inv`. Bounded:
    /// a neighbor that got the block elsewhere never answers, so after
    /// [`MAX_ANN_RETRIES`] rounds the remainder is assumed served.
    ///
    /// Under [`FanoutPolicy::Adaptive`] each stalled round doubles the
    /// wave ([`FanoutPolicy::wave`]) and the final round re-invs every
    /// remaining neighbor, so delivery never depends on the small first
    /// wave having been lucky.
    fn announce_timeout(&mut self, block_id: Digest, retry: u32) -> Output {
        let banned = &self.banned;
        let Some(Announcement { pending, told }) = self.pending_announcements.get_mut(&block_id)
        else {
            return Output::none(); // everyone acknowledged
        };
        pending.retain(|p| !banned.contains(p));
        if pending.is_empty() || retry >= MAX_ANN_RETRIES {
            self.pending_announcements.remove(&block_id);
            return Output::none();
        }
        let mut out = Output::none();
        let wave = self.fanout.wave(retry + 1, pending.len());
        for &n in &pending[..wave] {
            tell(told, block_id, n, &mut out);
        }
        out.timers.push((block_id, (retry + 1) | ANN_FLAG));
        out
    }

    /// Put the engine's next request on the wire and re-arm the session
    /// timer. A `retry` request follows a failed attempt (timer or decode):
    /// it charges the server's breaker, counts a rung change as an
    /// escalation and, on adaptive peers, is hedged. Exhausting the ladder
    /// fails over.
    fn request(&mut self, block_id: Digest, before: RungKind, step: Step) -> Output {
        let (msg, retry) = match step {
            Step::Send { msg, retry } => (Some(msg), retry),
            Step::Exhausted => (None, true),
            _ => return Output::none(),
        };
        let Some(s) = self.sessions.get_mut(&block_id) else {
            return Output::none();
        };
        s.bump_epoch();
        let (server, epoch, escalated) = (s.server, s.attempt, s.engine.rung() != before);
        if retry && self.adaptive {
            // Charge a non-attributable failure to the current server and
            // drop its in-flight stamp (Karn's rule — a reply arriving
            // after this point must not become an RTT sample or reset the
            // failure streak).
            self.health.note_failure(server, self.now);
            self.req_sent.remove(&(block_id, server));
        }
        let Some(msg) = msg else {
            return self.failover(block_id);
        };
        let mut out = Output::none();
        out.escalations = escalated as u32;
        // Hedged fetch: `server` is slow or unlucky, but the session has
        // not failed over yet. Race a duplicate request against the
        // healthiest alternate announcer — first response wins, the
        // loser's late reply is discarded without punishment.
        if retry && self.adaptive {
            if let Some(h) = self.pick_hedge(&block_id) {
                self.hedges_issued += 1;
                out.send.push((h, msg.clone()));
            }
        }
        out.send.push((server, msg));
        out.timers.push((block_id, epoch));
        out
    }

    /// Restart the session at rung 1 against the non-banned alternate
    /// announcer whose breaker circuit is healthiest (or, lacking one,
    /// re-request from the current server). Only adaptive peers ever charge
    /// a breaker, so on the fixed arm every circuit is closed and this is
    /// the seed's first-non-banned pick in announcement order.
    fn failover(&mut self, block_id: Digest) -> Output {
        // Pick the replacement server before borrowing the session
        // mutably: the breaker ranking reads `self.health`.
        let pick: Option<usize> = {
            let Some(s) = self.sessions.get(&block_id) else {
                return Output::none();
            };
            let best = self.healthiest(&s.alternates, None);
            if let Some((1, idx)) = best {
                self.health.note_probe(s.alternates[idx]);
            }
            best.map(|(_, idx)| idx)
        };
        let (server, epoch, switched, request) = {
            let Some(s) = self.sessions.get_mut(&block_id) else {
                return Output::none();
            };
            s.bump_epoch();
            s.cycles += 1;
            s.hedge = None;
            if let Some(idx) = pick {
                s.server = s.alternates.remove(idx);
            }
            let switched = pick.is_some();
            if !switched && s.cycles >= MAX_LADDER_CYCLES {
                // Nobody else ever announced this block and the full ladder
                // failed twice against the only known server: give up. (A
                // block id from a corrupted announcement frame lands here —
                // no peer can serve it. A later genuine announcement simply
                // reopens a fresh session.)
                self.sessions.remove(&block_id);
                return Output::none();
            }
            (s.server, s.attempt, switched, s.engine.start(&self.mempool))
        };
        let mut out = Output::none();
        out.failovers = switched as u32;
        out.send.push((server, request));
        out.timers.push((block_id, epoch));
        out
    }

    /// Record misbehavior; at [`BAN_THRESHOLD`] ban the offender and fail
    /// over every session it was serving.
    fn punish(&mut self, offender: PeerId, score: u32) -> Output {
        let mut out = Output::none();
        if !self.misbehavior.contains_key(&offender)
            && self.misbehavior.len() >= self.limits.max_misbehavior_entries
        {
            // Tracking table full: evict the least-incriminated entry
            // (deterministically — min score, then min id — regardless of
            // map iteration order) to make room for the fresh offence.
            if let Some((&evict, _)) = self.misbehavior.iter().min_by_key(|(p, s)| (**s, p.0)) {
                self.misbehavior.remove(&evict);
            }
        }
        let total = self.misbehavior.entry(offender).or_insert(0);
        *total = total.saturating_add(score);
        if *total >= BAN_THRESHOLD && self.banned.insert(offender) {
            out.banned.push(offender);
            for s in self.sessions.values_mut() {
                s.alternates.retain(|p| *p != offender);
            }
            let affected: Vec<Digest> = self
                .sessions
                .iter()
                .filter(|(_, s)| s.server == offender)
                .map(|(id, _)| *id)
                .collect();
            for id in affected {
                let o = self.failover(id);
                out.absorb(o);
            }
        }
        out
    }

    /// What a receive session of this peer opens with and descends by.
    fn ladder(&self) -> Ladder {
        match &self.protocol {
            RelayProtocol::Graphene(cfg) => Ladder::Graphene(*cfg, Some(self.policy)),
            RelayProtocol::Xthin { filter_fpr } => Ladder::Xthin { filter_fpr: *filter_fpr },
            RelayProtocol::CompactBlocks | RelayProtocol::FullBlocks => Ladder::Plain,
        }
    }

    fn on_inv(&mut self, from: PeerId, m: InvMsg) -> Output {
        if self.blocks.contains_key(&m.block_id) {
            // `from` has not heard that we hold the block and may be
            // re-inv'ing us on its timer: answer once, while our entry can
            // remember that we did.
            let mut out = Output::none();
            if let Some(Announcement { told, .. }) = self.pending_announcements.get_mut(&m.block_id)
            {
                if !told.contains(&from) {
                    tell(told, m.block_id, from, &mut out);
                }
            }
            return out;
        }
        if let Some(s) = self.sessions.get_mut(&m.block_id) {
            // A concurrent announcement: remember the peer as a failover
            // candidate rather than opening a second session.
            if from != s.server && !s.alternates.contains(&from) && !self.banned.contains(&from) {
                s.alternates.push(from);
            }
            if self.banned.contains(&s.server) {
                // We were stuck on a banned server with nowhere to go; this
                // announcement is the way out.
                return self.failover(m.block_id);
            }
            return Output::none();
        }
        if self.banned.contains(&from) {
            return Output::none();
        }
        if self.sessions.len() >= self.limits.max_sessions {
            // At the session cap: ignore the announcement. The announcer's
            // bounded re-inv timer (or a reconnect handshake) offers the
            // block again once a slot frees.
            return Output::none();
        }
        let mut engine = RxEngine::new(m.block_id, self.ladder());
        let request = engine.start(&self.mempool);
        self.sessions.insert(m.block_id, RxSession::new(from, engine));
        let mut out = Output::none();
        out.send.push((from, request));
        out.timers.push((m.block_id, 0));
        out
    }

    /// Serve a block request from a held block. A Graphene server answers
    /// through the stateless [`respond`]er; the other protocols answer
    /// `GetData` in their own format and share the body-fetch, xthin and
    /// full-block replies.
    fn on_request(&mut self, from: PeerId, req: Message) -> Output {
        let Some(block) = req.request_block_id().and_then(|id| self.blocks.get(&id)) else {
            return Output::none();
        };
        let reply = match (&self.protocol, &req) {
            // The ladder's terminal rung — and what a server that cannot
            // encode Graphene, re-encode a retry or stream cells answers
            // instead, so the ladder still terminates. (XThin requests
            // arrive as `XthinGetData`; a plain getdata gets the block.)
            (_, Message::GetFullBlock(_)) => None,
            // The sender does not re-learn m here; deployed graphene caches
            // it.
            (RelayProtocol::Graphene(cfg), _) => {
                respond(block, None, &req, self.mempool.len().max(block.len()), cfg)
            }
            (RelayProtocol::CompactBlocks, Message::GetData(_)) => {
                Some(Message::CmpctBlock(build_cmpctblock(block)))
            }
            (_, Message::GetData(_) | Message::GetGrapheneRetry(_) | Message::GetMoreCells(_)) => {
                None
            }
            (_, Message::GrapheneRequest(_)) => return Output::none(),
            _ => respond_plain(block, &req),
        };
        let msg = reply.unwrap_or_else(|| {
            Message::FullBlock(FullBlockMsg {
                header: *block.header(),
                txns: block.txns().to_vec(),
            })
        });
        Output { send: vec![(from, msg)], ..Output::none() }
    }

    /// First-response-wins arbitration for a block payload from `from`,
    /// with the lifetime hedge counters. `false` means no session wants it:
    /// unsolicited, or a hedge loser's late reply.
    fn accept(&mut self, block_id: &Digest, from: PeerId) -> bool {
        let outcome = self.sessions.get_mut(block_id).and_then(|s| s.accept_from(from));
        self.hedges_wasted += u64::from(outcome == Some(HedgeOutcome::PrimaryWon));
        self.hedges_won += u64::from(outcome == Some(HedgeOutcome::HedgeWon));
        outcome.is_some()
    }

    /// Hand a block payload to its session's engine and act on the verdict.
    fn on_response(&mut self, from: PeerId, msg: Message, neighbors: &[PeerId]) -> Output {
        let Some(block_id) = msg.response_block_id() else {
            return Output::none();
        };
        if matches!(&msg, Message::RatelessCells(m) if m.salt != rateless_salt(&block_id)) {
            // The codec salt is a public function of the block ID: a frame
            // claiming any other salt is provably hostile, no session needed.
            return self.punish(from, MALFORMED_SCORE);
        }
        // Full blocks self-validate, so any sender is acceptable — a
        // failed-over session's old server may still answer — but a hedged
        // session still settles its race for the win/waste counters.
        if !self.accept(&block_id, from) && !matches!(msg, Message::FullBlock(_)) {
            return Output::none();
        }
        let Some(session) = self.sessions.get_mut(&block_id) else {
            return Output::none();
        };
        let mut keep = |tx: &Transaction| session.add_body(&self.limits, tx);
        match &msg {
            Message::GrapheneBlock(m) => m.prefilled.iter().for_each(&mut keep),
            Message::GrapheneRecovery(m) => m.missing.iter().for_each(&mut keep),
            Message::BlockTxn(m) => m.txns.iter().for_each(&mut keep),
            Message::XthinBlock(m) => m.missing.iter().for_each(&mut keep),
            Message::CmpctBlock(m) => m.prefilled.iter().for_each(|(_, tx)| keep(tx)),
            _ => {}
        }
        let before = session.engine.rung();
        let step = match (&msg, session.engine.rateless_state_bytes()) {
            // Decode state would outgrow its budget: abandon the stream
            // (short IDs bound the worst case instead).
            (Message::RatelessCells(m), Some(held))
                if held + (m.cells.len() * graphene_iblt::CELL_BYTES) as u64
                    > self.limits.max_rateless_state_bytes =>
            {
                session.engine.abandon_rung(&self.mempool)
            }
            _ => session.engine.on_message(&msg, &self.mempool),
        };
        let (header, ordered_ids) = match step {
            Step::Done { header, ordered_ids } => (header, ordered_ids),
            // §6.1: provably hostile — ban and fail over. Everything else
            // that fails is not attributable and merely climbs the ladder.
            Step::Misbehaviour(_) => return self.punish(from, MALFORMED_SCORE),
            step => return self.request(block_id, before, step),
        };
        // A full block brings its own bodies; every other payload's come
        // from the mempool and what the session collected. One that is
        // unavailable leaves the session open for the timer.
        let txns: Option<Vec<Transaction>> = match msg {
            Message::FullBlock(m) => Some(m.txns),
            _ => {
                let body = |id| self.mempool.get(id).or_else(|| session.bodies.get(id)).cloned();
                ordered_ids.iter().map(body).collect()
            }
        };
        // `Done` is the engine's verdict that these IDs hash to the header's
        // Merkle root and the header to `block_id`: the block is built from
        // it, not verified a second time.
        let block = txns
            .map(|t| Block::from_verified(header, block_id, &ordered_ids, t, OrderingScheme::Ctor));
        let Some(Ok(block)) = block else {
            return Output::none();
        };
        let Some(session) = self.sessions.remove(&block_id) else {
            return Output::none();
        };
        self.mempool.confirm(&ordered_ids);
        self.blocks.insert(block_id, block);
        // Known holders are not told: the server, every peer whose `Inv`
        // reached us (the alternates, any hedge target among them) and the
        // payload's sender. Adjacency order keeps runs deterministic.
        let news: Vec<PeerId> = (neighbors.iter().copied())
            .filter(|&n| n != from && n != session.server && !session.alternates.contains(&n))
            .collect();
        let mut out = Output::none();
        out.completed_block = Some(block_id);
        self.announce(block_id, &news, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_bloom::BloomFilter;
    use graphene_wire::messages::{
        BlockTxnMsg, GetDataMsg, GetFullBlockMsg, RatelessCellsMsg, XthinGetDataMsg,
    };
    use graphene_wire::Encode;

    fn block_of(n: usize, tag: u8) -> Block {
        let txns: Vec<Transaction> =
            (0..n).map(|i| Transaction::new(vec![tag, i as u8, 7, 7])).collect();
        Block::assemble(Digest::ZERO, 1, txns, OrderingScheme::Ctor)
    }

    fn graphene_peer(id: usize) -> Peer {
        Peer::new(PeerId(id), RelayProtocol::Graphene(GrapheneConfig::default()), Mempool::new())
    }

    #[test]
    fn announce_dedupes_repeated_targets() {
        let mut p = graphene_peer(0);
        let block = block_of(3, 1);
        let id = block.id();
        // Originate to overlapping neighbor lists: [1, 2], then a
        // handshake re-announcement toward 1 again.
        p.originate(block, &[PeerId(1), PeerId(2), PeerId(1)]);
        let _ = p.handshake(PeerId(1));
        let pending = p.pending_announcement(&id).expect("announcement tracked");
        assert_eq!(pending, &[PeerId(1), PeerId(2)], "duplicate PeerIds tracked");
    }

    #[test]
    fn pending_announcements_respect_cap() {
        let mut p = graphene_peer(0);
        p.limits.max_pending_announcements = 2;
        for tag in 0..5u8 {
            p.originate(block_of(2, tag), &[PeerId(1)]);
        }
        assert_eq!(p.pending_announcement_count(), 2);
    }

    #[test]
    fn session_cap_ignores_excess_announcements() {
        let mut p = graphene_peer(0);
        p.limits.max_sessions = 2;
        for tag in 0..4u8 {
            let id = block_of(2, tag).id();
            p.handle(PeerId(1), Message::Inv(InvMsg { block_id: id }), &[]);
        }
        assert_eq!(p.open_sessions(), 2);
        // Further announcements at the cap are ignored, not queued.
        let fresh = block_of(2, 9).id();
        p.handle(PeerId(1), Message::Inv(InvMsg { block_id: fresh }), &[]);
        assert_eq!(p.open_sessions(), 2, "still at cap");
    }

    #[test]
    fn queue_sheds_oldest_announcements_first() {
        let mut p = graphene_peer(0);
        p.limits.max_queue_frames = 3;
        // Open a session for block A so its payload frames are protected.
        let a = block_of(2, 1).id();
        p.handle(PeerId(1), Message::Inv(InvMsg { block_id: a }), &[]);
        // Queue: [inv(x), blocktxn(A), inv(y), inv(z)] — cap 3.
        let shed = p.enqueue(PeerId(1), Message::Inv(InvMsg { block_id: block_of(2, 2).id() }), 40);
        assert_eq!(shed, 0);
        let protected = Message::BlockTxn(BlockTxnMsg { block_id: a, txns: vec![] });
        assert_eq!(p.enqueue(PeerId(1), protected, 40), 0);
        assert_eq!(
            p.enqueue(PeerId(1), Message::Inv(InvMsg { block_id: block_of(2, 3).id() }), 40),
            0
        );
        let shed = p.enqueue(PeerId(1), Message::Inv(InvMsg { block_id: block_of(2, 4).id() }), 40);
        assert_eq!(shed, 1, "over cap: one frame must go");
        // The oldest announcement went; the protected recovery frame stayed.
        let (_, first, _) = p.dequeue().expect("queue non-empty");
        assert!(matches!(first, Message::BlockTxn(_)), "protected frame was shed: {first:?}");
        assert_eq!(p.inbox_len(), 2);
    }

    #[test]
    fn queue_never_sheds_active_recovery_even_at_byte_cap() {
        let mut p = graphene_peer(0);
        p.limits.max_queue_frames = 2;
        let a = block_of(2, 1).id();
        p.handle(PeerId(1), Message::Inv(InvMsg { block_id: a }), &[]);
        let protected = || Message::BlockTxn(BlockTxnMsg { block_id: a, txns: vec![] });
        assert_eq!(p.enqueue(PeerId(1), protected(), 40), 0);
        assert_eq!(p.enqueue(PeerId(1), protected(), 40), 0);
        // All queued frames are protected: the hard cap drops the newest.
        assert_eq!(p.enqueue(PeerId(1), protected(), 40), 1);
        assert_eq!(p.inbox_len(), 2);
    }

    #[test]
    fn orphan_bodies_respect_byte_cap() {
        let mut p = graphene_peer(0);
        p.limits.max_body_bytes = 10;
        let a = block_of(2, 1).id();
        p.handle(PeerId(1), Message::Inv(InvMsg { block_id: a }), &[]);
        // Each tx body is 4 bytes; the cap fits two.
        let txns: Vec<Transaction> =
            (0..5).map(|i| Transaction::new(vec![9, i as u8, 1, 1])).collect();
        p.handle(PeerId(1), Message::BlockTxn(BlockTxnMsg { block_id: a, txns }), &[]);
        let acct = p.accounting();
        assert!(acct.body_bytes <= 10, "body bytes {} over cap", acct.body_bytes);
    }

    #[test]
    fn misbehavior_table_respects_cap() {
        let mut p = graphene_peer(0);
        p.limits.max_misbehavior_entries = 3;
        let hostile = |_: usize| {
            Message::XthinGetData(XthinGetDataMsg {
                block_id: Digest::ZERO,
                mempool_filter: BloomFilter::new(75_000, 0.001, 7),
            })
        };
        for i in 1..=8usize {
            p.handle(PeerId(i), hostile(i), &[]);
        }
        assert!(p.misbehavior_entries() <= 3, "{} entries", p.misbehavior_entries());
    }

    #[test]
    fn snapshot_restore_keeps_durable_loses_volatile() {
        let mut p = graphene_peer(0);
        p.mempool.insert(Transaction::new(vec![1, 1, 1]));
        let block = block_of(3, 2);
        let held = block.id();
        p.originate(block, &[PeerId(1)]);
        // Open a volatile session on another block.
        let inflight = block_of(2, 3).id();
        p.handle(PeerId(2), Message::Inv(InvMsg { block_id: inflight }), &[]);
        assert_eq!(p.open_sessions(), 1);
        assert_eq!(p.pending_announcement_count(), 1);

        let snap = p.snapshot();
        p.restore(snap);
        assert!(p.has_block(&held), "durable block lost");
        assert!(!p.mempool.is_empty(), "durable mempool lost");
        assert_eq!(p.open_sessions(), 0, "sessions must not survive a crash");
        assert_eq!(p.pending_announcement_count(), 0);
        assert_eq!(p.inbox_len(), 0);
        // A re-announcement reopens the lost session.
        p.handle(PeerId(2), Message::Inv(InvMsg { block_id: inflight }), &[]);
        assert_eq!(p.open_sessions(), 1);
    }

    #[test]
    fn timer_current_tracks_session_epoch_and_announcements() {
        let mut p = graphene_peer(0);
        let a = block_of(2, 1).id();
        p.handle(PeerId(1), Message::Inv(InvMsg { block_id: a }), &[]);
        assert!(p.timer_current(&a, 0));
        assert!(!p.timer_current(&a, 1), "future epoch is not live");
        let b = block_of(2, 2).id();
        p.originate(block_of(2, 2), &[PeerId(1)]);
        assert!(p.timer_current(&b, ANN_FLAG));
        let _ = p.handle_timeout(b, MAX_ANN_RETRIES | ANN_FLAG); // exhausts retries
        assert!(!p.timer_current(&b, ANN_FLAG));
    }

    /// Every frame a server emits passes through `mangle_output`: a
    /// stalling server answers neither `GetData` nor `GetFullBlock`, and a
    /// server that corrupts IBLTs never lets a clean Protocol 1 frame out.
    #[test]
    fn adversarial_server_mangles_every_served_frame() {
        use crate::adversary::AdversaryConfig;
        let block = block_of(30, 5);
        let id = block.id();
        let server = |cfg: Option<AdversaryConfig>| {
            let mut p = graphene_peer(0);
            p.behavior = cfg.map_or(Behavior::Honest, Behavior::Adversarial);
            p.originate(block.clone(), &[]);
            p
        };
        let getdata = Message::GetData(GetDataMsg { block_id: id, mempool_count: 60 });
        let full = Message::GetFullBlock(GetFullBlockMsg { block_id: id });

        let mut stall = server(Some(AdversaryConfig { stall: 1.0, ..Default::default() }));
        for req in [&getdata, &full, &getdata] {
            let out = stall.handle(PeerId(1), req.clone(), &[]);
            assert!(out.send.is_empty() && out.send_delayed.is_empty(), "{req:?} answered");
        }

        let honest = server(None).handle(PeerId(1), getdata.clone(), &[]);
        let [(_, clean @ Message::GrapheneBlock(_))] = honest.send.as_slice() else {
            panic!("honest server must answer with a GrapheneBlock: {:?}", honest.send);
        };
        let cfg = AdversaryConfig { malformed_iblt: 1.0, ..Default::default() };
        let mut hostile = server(Some(cfg));
        for _ in 0..4 {
            let out = hostile.handle(PeerId(1), getdata.clone(), &[]);
            let [(_, sent @ Message::GrapheneBlock(_))] = out.send.as_slice() else {
                panic!("hostile server must still answer: {:?}", out.send);
            };
            assert_ne!(sent.to_vec(), clean.to_vec(), "an unmangled GrapheneBlock went out");
        }
    }

    /// Shed ordering with a Protocol 1 body queued: a served
    /// `GrapheneBlock` classifies as active-session recovery, so
    /// announcements still drop first.
    #[test]
    fn served_bodies_survive_shedding_before_announcements() {
        let mut p = graphene_peer(0);
        p.limits.max_queue_frames = 3;
        let block = block_of(20, 6);
        let a = block.id();
        p.handle(PeerId(1), Message::Inv(InvMsg { block_id: a }), &[]);

        // A sender holding A answers the receiver's getdata.
        let mut sender = graphene_peer(9);
        sender.originate(block, &[]);
        let mut out = sender.handle(
            PeerId(0),
            Message::GetData(GetDataMsg { block_id: a, mempool_count: 40 }),
            &[],
        );
        let (_, body) = out.send.pop().expect("sender answers getdata");
        assert!(matches!(body, Message::GrapheneBlock(_)));
        let frame_len = body.to_vec().len();

        // Queue [inv, body(A), inv] at cap 3; the next inv must shed an
        // announcement, never the session body.
        let inv = |tag| Message::Inv(InvMsg { block_id: block_of(2, tag).id() });
        assert_eq!(p.enqueue(PeerId(1), inv(7), 40), 0);
        assert_eq!(p.enqueue(PeerId(1), body, frame_len), 0);
        assert_eq!(p.enqueue(PeerId(1), inv(8), 40), 0);
        assert_eq!(p.enqueue(PeerId(1), inv(9), 40), 1, "over cap: one announcement goes");
        let mut bodies = 0;
        while let Some((_, m, _)) = p.dequeue() {
            bodies += matches!(m, Message::GrapheneBlock(_)) as usize;
        }
        assert_eq!(bodies, 1, "the served body was shed");
    }

    #[test]
    fn accounting_high_water_mark_monotone() {
        let mut p = graphene_peer(0);
        let a = block_of(2, 1).id();
        p.handle(PeerId(1), Message::Inv(InvMsg { block_id: a }), &[]);
        let hwm = p.accounting().hwm_bytes;
        assert!(hwm >= SESSION_FIXED_BYTES, "session not accounted: {hwm}");
        assert!(hwm <= p.limits.accounted_ceiling());
    }

    // --- Rateless rung -----------------------------------------------------

    /// Build a server/receiver pair mid-ladder: the receiver's Protocol 2
    /// request went unanswered, the timeout fired, and the session now sits
    /// on the rateless rung with its first `GetMoreCells` in `out`.
    fn rateless_session() -> (Peer, Peer, Digest, Output) {
        use graphene_blockchain::{Scenario, ScenarioParams};
        use rand::{rngs::StdRng, SeedableRng};
        let params = ScenarioParams {
            block_size: 150,
            extra_mempool_multiple: 1.0,
            block_fraction_in_mempool: 0.6,
            ..Default::default()
        };
        let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(8));
        let id = s.block.id();
        let mut server = graphene_peer(0);
        server.mempool = s.receiver_mempool.clone();
        server.originate(s.block.clone(), &[]);
        let mut receiver = graphene_peer(1);
        receiver.mempool = s.receiver_mempool.clone();
        receiver.policy.rateless = true;

        let out = receiver.handle(PeerId(0), Message::Inv(InvMsg { block_id: id }), &[]);
        let (_, getdata) = out.send.into_iter().next().expect("getdata");
        let out = server.handle(PeerId(1), getdata, &[]);
        let (_, gblock) = out.send.into_iter().next().expect("graphene block");
        let out = receiver.handle(PeerId(0), gblock, &[]);
        assert!(out.completed_block.is_none(), "partial mempool must need Protocol 2");
        let &(_, attempt) = out.timers.last().expect("P2 timer armed");
        // The GrapheneRequest is lost; the timeout escalates. With rateless
        // enabled and a candidate set in hand, the next rung is the stream.
        let out = receiver.handle_timeout(id, attempt);
        assert_eq!(out.escalations, 1);
        assert!(
            matches!(out.send.first(), Some((_, Message::GetMoreCells(_)))),
            "expected a cell window request: {:?}",
            out.send
        );
        (server, receiver, id, out)
    }

    #[test]
    fn rateless_rung_decodes_after_lost_p2_response() {
        let (mut server, mut receiver, id, out) = rateless_session();
        // In-flight decode state is charged against the resource ceiling.
        let acct = receiver.accounting();
        assert!(acct.rateless_state_bytes > 0, "decoder state not accounted");
        assert!(acct.hwm_bytes <= receiver.limits.accounted_ceiling());

        let mut to_server: Vec<Message> = out.send.into_iter().map(|(_, m)| m).collect();
        let mut completed = false;
        for _ in 0..64 {
            let mut to_receiver = Vec::new();
            for m in to_server.drain(..) {
                to_receiver.extend(server.handle(PeerId(1), m, &[]).send);
            }
            for (_, m) in to_receiver {
                let out = receiver.handle(PeerId(0), m, &[]);
                completed |= out.completed_block == Some(id);
                to_server.extend(out.send.into_iter().map(|(_, m)| m));
            }
            if completed {
                break;
            }
            assert!(!to_server.is_empty(), "exchange stalled before completion");
        }
        assert!(completed, "rateless rung never reconstructed the block");
        assert!(receiver.has_block(&id));
        assert_eq!(receiver.accounting().rateless_state_bytes, 0, "state freed on completion");
    }

    #[test]
    fn wrong_salt_cell_stream_is_banned() {
        let mut p = graphene_peer(1);
        let id = block_of(2, 1).id();
        // The codec salt is a public function of the block ID: any other
        // salt is provably hostile even without an open session.
        let msg = Message::RatelessCells(RatelessCellsMsg {
            block_id: id,
            salt: rateless_salt(&id) ^ 1,
            start_index: 0,
            cells: vec![graphene_iblt::Cell::default(); 4],
        });
        let out = p.handle(PeerId(0), msg, &[]);
        assert_eq!(out.banned, vec![PeerId(0)]);
        assert!(p.is_banned(PeerId(0)));
    }

    #[test]
    fn rateless_state_cap_falls_through_to_short_ids() {
        let (mut server, mut receiver, _id, out) = rateless_session();
        // Shrink the budget below the already-charged pending heap: the
        // next window must abandon the stream for the bounded short-ID rung.
        receiver.limits.max_rateless_state_bytes = 64;
        let (_, req) = out.send.into_iter().next().expect("window request");
        let sout = server.handle(PeerId(1), req, &[]);
        let (_, cells) = sout.send.into_iter().next().expect("cells");
        let rout = receiver.handle(PeerId(0), cells, &[]);
        assert_eq!(rout.escalations, 1, "budget overrun must escalate");
        assert!(
            matches!(rout.send.first(), Some((_, Message::XthinGetData(_)))),
            "expected the short-ID rung: {:?}",
            rout.send
        );
    }

    #[test]
    fn duplicate_cell_window_is_ignored_not_punished() {
        let (mut server, mut receiver, id, out) = rateless_session();
        let (_, req) = out.send.into_iter().next().expect("window request");
        let sout = server.handle(PeerId(1), req, &[]);
        let (_, cells) = sout.send.into_iter().next().expect("cells");
        let _ = receiver.handle(PeerId(0), cells.clone(), &[]);
        // A replayed window (duplicate delivery, link reorder) is not
        // attributable misbehavior: dropped, re-requested by the timer.
        let out = receiver.handle(PeerId(0), cells, &[]);
        assert!(out.banned.is_empty());
        assert!(out.send.is_empty());
        assert!(!receiver.is_banned(PeerId(0)));
        assert!(receiver.timer_current(&id, receiver.sessions[&id].attempt));
    }

    #[test]
    fn crash_wipes_rateless_decode_state() {
        let (_server, mut receiver, _id, _out) = rateless_session();
        assert!(receiver.accounting().rateless_state_bytes > 0);
        let snap = receiver.snapshot();
        receiver.restore(snap);
        assert_eq!(receiver.open_sessions(), 0, "decode sessions must not survive a crash");
        assert_eq!(receiver.accounting().rateless_state_bytes, 0);
    }

    // --- Adaptive failure detection ----------------------------------------

    /// A victim holding the whole block in its mempool, plus a server peer
    /// that originated `block` and can answer requests for it.
    fn victim_and_server(block: &Block, victim_id: usize, server_id: usize) -> (Peer, Peer) {
        let mut victim = graphene_peer(victim_id);
        for tx in block.txns() {
            victim.mempool.insert(tx.clone());
        }
        let mut server = graphene_peer(server_id);
        server.originate(block.clone(), &[]);
        (victim, server)
    }

    #[test]
    fn session_epoch_clamps_below_ann_flag() {
        // Regression: a long-lived session whose epoch reached ANN_FLAG
        // via += 1 would have its next timer routed to announce_timeout
        // (the flag bit is how the two timer families share one event).
        let mut p = graphene_peer(1);
        let id = block_of(2, 7).id();
        p.handle(PeerId(2), Message::Inv(InvMsg { block_id: id }), &[]);
        // Age the session to the last epoch below the flag bit.
        p.sessions.get_mut(&id).expect("session open").attempt = ANN_FLAG - 1;
        assert!(p.timer_current(&id, ANN_FLAG - 1));
        let out = p.handle_timeout(id, ANN_FLAG - 1);
        assert!(!out.send.is_empty(), "misrouted to announce_timeout: no request went out");
        let (_, epoch) = out.timers[0];
        assert_eq!(epoch & ANN_FLAG, 0, "session epoch collided with the announcement flag");
        assert_eq!(p.sessions[&id].attempt, 0, "epoch must wrap below ANN_FLAG");
    }

    #[test]
    fn hedged_fetch_first_response_wins_and_late_reply_is_not_punished() {
        let block = block_of(40, 11);
        let id = block.id();
        let (mut victim, mut server) = victim_and_server(&block, 1, 2);
        victim.enable_adaptive();
        // Session opens against peer 2; peer 3 announces late → alternate.
        let out = victim.handle(PeerId(2), Message::Inv(InvMsg { block_id: id }), &[]);
        let Some((_, Message::GetData(getdata))) = out.send.first().cloned() else {
            panic!("expected a GetData: {:?}", out.send);
        };
        victim.handle(PeerId(3), Message::Inv(InvMsg { block_id: id }), &[]);
        // The timer fires: the rung climbs and a hedge races peer 3.
        let out = victim.handle_timeout(id, 0);
        assert_eq!(victim.hedge_stats().0, 1, "no hedge issued");
        assert!(
            out.send.iter().any(|(to, _)| *to == PeerId(3)),
            "hedge request never sent to the alternate: {:?}",
            out.send
        );
        // Craft the block response once, then deliver it from the hedge
        // peer first — it must win the race and complete the session.
        let resp = server.handle(PeerId(1), Message::GetData(getdata), &[]);
        let (_, block_msg) = resp.send.first().cloned().expect("server answered");
        let out = victim.handle(PeerId(3), block_msg.clone(), &[]);
        assert!(out.completed_block.is_some(), "hedge response should complete the session");
        assert_eq!(victim.hedge_stats(), (1, 1, 0), "hedge must be counted as won");
        // The primary's late reply hits a closed session: silently
        // discarded, never punished — hedging must not create bans.
        let out = victim.handle(PeerId(2), block_msg, &[]);
        assert!(out.banned.is_empty());
        assert!(!victim.is_banned(PeerId(2)));
        assert_eq!(victim.misbehavior_entries(), 0, "late reply must not score misbehavior");
    }

    #[test]
    fn primary_win_counts_the_hedge_as_wasted() {
        let block = block_of(40, 12);
        let id = block.id();
        let (mut victim, mut server) = victim_and_server(&block, 1, 2);
        victim.enable_adaptive();
        let out = victim.handle(PeerId(2), Message::Inv(InvMsg { block_id: id }), &[]);
        let Some((_, Message::GetData(getdata))) = out.send.first().cloned() else {
            panic!("expected a GetData: {:?}", out.send);
        };
        victim.handle(PeerId(3), Message::Inv(InvMsg { block_id: id }), &[]);
        victim.handle_timeout(id, 0);
        assert_eq!(victim.hedge_stats().0, 1);
        let resp = server.handle(PeerId(1), Message::GetData(getdata), &[]);
        let (_, block_msg) = resp.send.first().cloned().expect("server answered");
        // The original server answers first: hedge wasted, not won.
        let out = victim.handle(PeerId(2), block_msg, &[]);
        assert!(out.completed_block.is_some());
        assert_eq!(victim.hedge_stats(), (1, 0, 1));
    }

    #[test]
    fn failover_prefers_a_closed_circuit_alternate() {
        let mut p = graphene_peer(1);
        p.enable_adaptive();
        let id = block_of(2, 13).id();
        // Session against 2; alternates announce in order [5, 6].
        p.handle(PeerId(2), Message::Inv(InvMsg { block_id: id }), &[]);
        p.handle(PeerId(5), Message::Inv(InvMsg { block_id: id }), &[]);
        p.handle(PeerId(6), Message::Inv(InvMsg { block_id: id }), &[]);
        // Trip peer 5's breaker open.
        for _ in 0..crate::health::TRIP_THRESHOLD {
            p.health.note_failure(PeerId(5), p.now);
        }
        assert_eq!(p.breaker_state(PeerId(5)), BreakerState::Open);
        let out = p.failover(id);
        assert_eq!(out.failovers, 1);
        assert_eq!(
            p.sessions[&id].server,
            PeerId(6),
            "failover must skip the open-circuit alternate"
        );
        // The skipped peer stays available (still an alternate, never
        // banned): the breaker only reorders preference.
        assert!(p.sessions[&id].alternates.contains(&PeerId(5)));
        assert!(!p.is_banned(PeerId(5)));
    }

    #[test]
    fn rtt_samples_come_from_request_response_pairs() {
        let block = block_of(40, 14);
        let id = block.id();
        let (mut victim, mut server) = victim_and_server(&block, 1, 2);
        victim.enable_adaptive();
        victim.set_clock(SimTime::from_millis(1_000));
        let out = victim.handle(PeerId(2), Message::Inv(InvMsg { block_id: id }), &[]);
        let Some((_, Message::GetData(getdata))) = out.send.first().cloned() else {
            panic!("expected a GetData: {:?}", out.send);
        };
        let resp = server.handle(PeerId(1), Message::GetData(getdata), &[]);
        let (_, block_msg) = resp.send.first().cloned().expect("server answered");
        // The response lands 120 ms later.
        victim.set_clock(SimTime::from_millis(1_120));
        victim.handle(PeerId(2), block_msg, &[]);
        let est = victim.rtt_estimate(PeerId(2)).expect("round trip must be sampled");
        assert_eq!(est.srtt, 120_000, "srtt must equal the measured 120 ms");
        assert_eq!(est.samples, 1);
    }

    #[test]
    fn karn_rule_no_sample_and_no_reset_after_timeout() {
        let block = block_of(40, 15);
        let id = block.id();
        let (mut victim, mut server) = victim_and_server(&block, 1, 2);
        victim.enable_adaptive();
        victim.set_clock(SimTime::from_millis(1_000));
        let out = victim.handle(PeerId(2), Message::Inv(InvMsg { block_id: id }), &[]);
        let Some((_, Message::GetData(getdata))) = out.send.first().cloned() else {
            panic!("expected a GetData: {:?}", out.send);
        };
        // The timer fires before any reply: Karn's rule drops the stamp
        // and the breaker charges a failure.
        victim.set_clock(SimTime::from_millis(2_200));
        victim.handle_timeout(id, 0);
        assert!(!victim.health.is_empty(), "timeout must charge a breaker failure");
        // The tarpitted reply finally limps in. It is processed (honest
        // bytes), but the ambiguous exchange yields no RTT sample and the
        // failure streak survives.
        let resp = server.handle(PeerId(1), Message::GetData(getdata), &[]);
        let (_, block_msg) = resp.send.first().cloned().expect("server answered");
        victim.set_clock(SimTime::from_millis(2_400));
        victim.handle(PeerId(2), block_msg, &[]);
        assert!(victim.rtt_estimate(PeerId(2)).is_none(), "late reply must not feed the RTT");
        assert!(!victim.health.is_empty(), "late reply must not reset the failure streak");
    }

    #[test]
    fn tracker_state_is_volatile_and_charged_to_the_ceiling() {
        let block = block_of(40, 16);
        let id = block.id();
        let (mut victim, _server) = victim_and_server(&block, 1, 2);
        victim.enable_adaptive();
        victim.set_clock(SimTime::from_millis(500));
        victim.handle(PeerId(2), Message::Inv(InvMsg { block_id: id }), &[]);
        assert!(victim.accounting().tracker_bytes > 0, "in-flight stamp must be charged");
        victim.handle_timeout(id, 0);
        let acct = victim.accounting();
        assert!(acct.tracker_bytes > 0);
        assert!(acct.accounted_bytes() <= victim.limits.accounted_ceiling());
        let snap = victim.snapshot();
        victim.restore(snap);
        assert_eq!(victim.accounting().tracker_bytes, 0, "trackers must not survive a crash");
        assert!(victim.rtt.is_empty() && victim.health.is_empty() && victim.req_sent.is_empty());
    }

    // --- Announcing only news ---------------------------------------------

    fn invs_to(out: &Output) -> Vec<PeerId> {
        (out.send.iter()).filter(|(_, m)| matches!(m, Message::Inv(_))).map(|(to, _)| *to).collect()
    }

    #[test]
    fn known_holders_are_never_told() {
        let block = block_of(40, 17);
        let id = block.id();
        let (mut victim, mut server) = victim_and_server(&block, 1, 2);
        // A = 2 opens the session, C = 3 becomes an alternate; 4 and 5 have
        // not been heard from.
        let neighbors = [PeerId(2), PeerId(3), PeerId(4), PeerId(5)];
        let inv = || Message::Inv(InvMsg { block_id: id });
        let out = victim.handle(PeerId(2), inv(), &neighbors);
        let Some((_, getdata)) = out.send.first().cloned() else {
            panic!("expected a request: {:?}", out.send);
        };
        assert!(victim.handle(PeerId(3), inv(), &neighbors).send.is_empty());
        let resp = server.handle(PeerId(1), getdata, &[]);
        let (_, block_msg) = resp.send.first().cloned().expect("server answered");
        let out = victim.handle(PeerId(2), block_msg, &neighbors);
        assert_eq!(out.completed_block, Some(id));
        assert_eq!(invs_to(&out), [PeerId(4), PeerId(5)], "a known holder was told");
        // 4 and 5 stay silent: every re-announcement round goes to them alone.
        for retry in 0..MAX_ANN_RETRIES {
            let out = victim.handle_timeout(id, retry | ANN_FLAG);
            assert_eq!(invs_to(&out), [PeerId(4), PeerId(5)], "round {retry}");
        }
        assert!(victim.handle_timeout(id, MAX_ANN_RETRIES | ANN_FLAG).send.is_empty());
    }

    #[test]
    fn a_live_entry_answers_an_untold_neighbor_once() {
        let mut p = graphene_peer(0);
        let block = block_of(3, 18);
        let id = block.id();
        let inv = || Message::Inv(InvMsg { block_id: id });
        let neighbors = [PeerId(1), PeerId(2), PeerId(3)];
        // 1 and 2 are told; 3 is not (say, it was a known holder).
        p.originate(block, &[PeerId(1), PeerId(2)]);
        // A told neighbor's `Inv` acknowledges and is not answered.
        assert!(p.handle(PeerId(1), inv(), &neighbors).send.is_empty());
        assert_eq!(p.pending_announcement(&id), Some(&[PeerId(2)][..]));
        // The untold neighbor is answered exactly once.
        assert_eq!(invs_to(&p.handle(PeerId(3), inv(), &neighbors)), [PeerId(3)]);
        assert!(p.handle(PeerId(3), inv(), &neighbors).send.is_empty(), "answered twice");
        // The answer does not make 3 a target of the re-announcements.
        assert_eq!(invs_to(&p.handle_timeout(id, ANN_FLAG)), [PeerId(2)]);
    }

    #[test]
    fn a_holder_without_an_entry_never_answers() {
        let mut p = graphene_peer(0);
        let inv = |block_id| Message::Inv(InvMsg { block_id });
        // Held but never announced.
        let a = block_of(3, 19);
        let a_id = a.id();
        p.originate(a, &[]);
        assert!(p.handle(PeerId(1), inv(a_id), &[]).send.is_empty());
        // Every target acknowledged: the entry is gone.
        let b = block_of(3, 20);
        let b_id = b.id();
        p.originate(b, &[PeerId(1)]);
        p.handle(PeerId(1), inv(b_id), &[]);
        assert_eq!(p.pending_announcement(&b_id), None);
        assert!(p.handle(PeerId(2), inv(b_id), &[]).send.is_empty());
        // The cap was hit: the block went out untracked.
        p.limits.max_pending_announcements = 1;
        p.originate(block_of(3, 21), &[PeerId(1)]);
        let c = block_of(3, 22);
        let c_id = c.id();
        assert_eq!(invs_to(&p.originate(c, &[PeerId(1)])), [PeerId(1)]);
        assert_eq!(p.pending_announcement(&c_id), None);
        assert!(p.handle(PeerId(2), inv(c_id), &[]).send.is_empty());
    }
}
