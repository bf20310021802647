//! The one recovery ladder: a sans-IO receiver engine and a stateless
//! responder.
//!
//! The paper specifies one receiver procedure — Protocol 1, then Protocol 2
//! with ping-pong decoding, then a fallback — and says nothing about what a
//! client does when that fails. Deployed relay protocols answer with a
//! ladder (BIP 152 escalates `cmpctblock → getblocktxn → full block`); this
//! module gives Graphene the same shape, once, for every driver:
//!
//! 1. **Graphene** — the ordinary Protocol 1 (+2, + the extra fetch of `R`
//!    false positives) exchange;
//! 2. **GrapheneRetry** — `GetGrapheneRetry`: the sender re-encodes with a
//!    fresh salt, β decayed toward 1 and an IBLT inflated `1.5×` per
//!    attempt ([`RetryTweak`], Theorem 3's knobs);
//! 3. **Rateless** (instead of 2 when [`RecoveryPolicy::rateless`] is set
//!    and the failed attempt left a candidate set) — stream coded cells of
//!    a rateless IBLT (arXiv 2402.02668) against those candidates, growing
//!    the stream until it decodes: a bad difference estimate costs a few
//!    more cells instead of a whole fresh sketch;
//! 4. **ShortIdFetch** — an xthin-style exchange (BUIP010): the receiver
//!    ships a Bloom filter of its mempool, the sender answers with the
//!    block's 8-byte short IDs plus whatever missed the filter;
//! 5. **FullBlock** — the uncompressed block; cannot fail.
//!
//! [`RxEngine`] is the receiver: a plain struct owning rung, retry count and
//! decode phase. Its inputs are "this decoded message arrived"
//! ([`RxEngine::on_message`]) and "the timer fired"
//! ([`RxEngine::on_timeout`], or [`RxEngine::abandon_rung`] when the driver
//! cannot afford the rung's state); its only outputs are the five [`Step`]s. It
//! holds no clock, queue, RNG, peer identity or byte counter — those belong
//! to whoever drives it: the lossless synchronous loop in
//! [`crate::session::exchange`], or the simulator's `Peer`, which adds
//! gossip, hedging, bans, resource accounting and timers around the same
//! object. [`respond`] is the sender: a pure function from a held block and
//! a request to the reply, so a server keeps no per-receiver state.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::candidates::Candidates;
use crate::config::GrapheneConfig;
use crate::error::{P1Failure, P2Failure};
use crate::protocol1::{self, CandidateSet, RetryTweak};
use crate::protocol2;
use graphene_blockchain::{Block, Header, Mempool, PeerView, Transaction, TxId};
use graphene_bloom::BloomFilter;
use graphene_hashes::{merkle_root, sha256, short_id_6, short_id_8, Digest, SipKey};
use graphene_iblt::rateless::{
    CellStream, DecodeProgress, RatelessDecoder, RatelessError, MAX_CELLS_PER_BATCH,
};
use graphene_iblt::Iblt;
use graphene_wire::messages::{
    BlockTxnMsg, CmpctBlockMsg, FullBlockMsg, GetBlockTxnMsg, GetDataMsg, GetFullBlockMsg,
    GetGrapheneRetryMsg, GetGrapheneTxnMsg, GetMoreCellsMsg, GrapheneBlockMsg, GrapheneRecoveryMsg,
    Message, RatelessCellsMsg, XthinBlockMsg, XthinGetDataMsg,
};
use std::collections::HashMap;

/// Salt domain for the short-ID rung's mempool filter, disjoint from the
/// S/I/R/J/F domains in [`crate::protocol1`].
const SALT_XF: u64 = 0x7874;

/// Salt domain for the rateless rung's cell stream, disjoint from every
/// other domain.
const SALT_RL: u64 = 0x524c;

/// Requests a [`Ladder::Plain`] or [`Ladder::Xthin`] session sends on its
/// opening rung before asking for the full block.
pub const PLAIN_ATTEMPTS: u32 = 3;

/// The rateless codec salt for a block: a deterministic function of the
/// block ID, so a receiver can verify the salt a `RatelessCells` frame
/// claims — a wrong salt is provable misbehavior, not a decode mystery.
pub fn rateless_salt(block_id: &Digest) -> u64 {
    block_id.low_u64() ^ SALT_RL
}

/// Knobs for the recovery ladder.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Inflated Graphene re-requests before escalating past Graphene
    /// (rung 2 repeats this many times with growing parameters).
    pub graphene_retries: u32,
    /// False-positive rate of the mempool filter in the short-ID rung.
    pub shortid_fpr: f64,
    /// Stream rateless cells instead of inflated retries whenever the
    /// failed attempt left a candidate set to stream against.
    pub rateless: bool,
    /// Most further coded-cell windows the rateless rung may ask for (after
    /// a short window or a lost one) before it falls through to the
    /// short-ID rung.
    pub rateless_max_batches: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            graphene_retries: 2,
            shortid_fpr: 0.001,
            rateless: false,
            rateless_max_batches: 8,
        }
    }
}

impl RecoveryPolicy {
    /// The "no retry cliff" ladder: one Graphene attempt, then stream
    /// rateless cells instead of inflated retries.
    pub fn rateless_first() -> Self {
        RecoveryPolicy { rateless: true, ..Default::default() }
    }
}

/// Rungs of the ladder, cheapest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RungKind {
    /// The session's ordinary block request.
    Graphene,
    /// Inflated-parameter Graphene re-request.
    GrapheneRetry,
    /// Rateless coded-cell stream against the failed attempt's candidates.
    Rateless,
    /// Xthin-style short-ID fetch.
    ShortIdFetch,
    /// Uncompressed block (cannot fail).
    FullBlock,
}

impl RungKind {
    /// Stable lowercase name for CSV output.
    pub fn as_str(&self) -> &'static str {
        match self {
            RungKind::Graphene => "graphene",
            RungKind::GrapheneRetry => "graphene_retry",
            RungKind::Rateless => "rateless",
            RungKind::ShortIdFetch => "shortid_fetch",
            RungKind::FullBlock => "full_block",
        }
    }
}

/// What a session opens with and how it descends when that fails.
///
/// The baseline receivers run on the same engine because they are pieces
/// of the ladder, not protocols beside it: an XThin session *is* the
/// short-ID rung (same request, same `XthinBlock` resolution), a compact
/// block ends in the same slot repair, and both finish on the same
/// full-block rung — so a driver has one receive path, whatever it speaks.
#[derive(Clone, Copy, Debug)]
pub enum Ladder {
    /// Graphene Protocols 1 + 2. A failed attempt descends by the policy;
    /// with none — the paper's client — it asks for the full block at once.
    Graphene(GrapheneConfig, Option<RecoveryPolicy>),
    /// `GetData`, answered in the server's own format (a compact or full
    /// block), up to [`PLAIN_ATTEMPTS`] times, then the full block.
    Plain,
    /// XThin: as [`Ladder::Plain`], but the request carries a mempool
    /// filter of this false-positive rate.
    Xthin {
        /// FPR of the receiver's mempool filter.
        filter_fpr: f64,
    },
}

/// What the engine tells its driver after one input.
#[derive(Debug)]
pub enum Step {
    /// Send this request to the server and (re)arm the timer. `retry` is
    /// set when the request opens a new attempt because the previous one
    /// failed to decode or timed out (same rung while its budget lasts,
    /// else the next rung) rather than continuing the current attempt.
    Send {
        /// The request.
        msg: Message,
        /// Whether a failed attempt preceded it.
        retry: bool,
    },
    /// The block is reconstructed: its transaction IDs in block order.
    ///
    /// Two guarantees hold on every path that yields it, and drivers rely
    /// on them instead of verifying again (the simulator's peer builds its
    /// `Block` with `Block::from_verified`):
    /// `merkle_root(&ordered_ids) == header.merkle_root`, and
    /// `header.id()` is the block ID the engine was created for.
    ///
    /// The engine's state is left as it was, so a driver that cannot
    /// assemble the bodies simply lets the timer fire.
    Done {
        /// The block header.
        header: Header,
        /// Transaction IDs in block order.
        ordered_ids: Vec<TxId>,
    },
    /// The message is provably hostile (§6.1 double-decode, wrong codec
    /// salt): no honest sender, link fault or unlucky hash can produce it.
    Misbehaviour(&'static str),
    /// Nothing to do: stale, duplicate, unsolicited or useless without
    /// being attributable. The timer stays armed.
    Ignore,
    /// The timer fired on the last rung: this server cannot deliver.
    /// [`RxEngine::start`] restarts the ladder (against another server).
    Exhausted,
}

fn send(msg: Message) -> Step {
    Step::Send { msg, retry: false }
}

/// Decode state between a request and its response.
enum Phase {
    /// Request sent, nothing decoded yet.
    Requested,
    /// Protocol 2 request sent; `n` is the block's transaction count.
    P2 { state: Box<CandidateSet>, n: usize },
    /// Rateless cell stream in flight: the decoder accumulates windows
    /// until the difference against the candidates peels.
    Rateless { candidates: Candidates, decoder: Box<RatelessDecoder> },
    /// Fetch by short ID of bodies the candidate set still lacks.
    Fetch { resolved: Candidates },
    /// Repair round of a short-ID block (xthin or compact): `ids[i]` for
    /// `i` in `unresolved` are placeholders until the `BlockTxn` arrives.
    Slots { ids: Vec<TxId>, unresolved: Vec<u64> },
}

/// Receiver-side ladder state for one block from one server.
pub struct RxEngine {
    block_id: Digest,
    ladder: Ladder,
    rung: RungKind,
    /// Same-rung requests consumed: plain re-requests, the `attempt` of a
    /// `GetGrapheneRetry`, or further windows of the cell stream.
    retries: u32,
    phase: Phase,
    /// Header and ordering bytes of the response the phase was built from.
    header: Option<Header>,
    order_bytes: Vec<u8>,
}

impl RxEngine {
    /// An engine for `block_id`; [`start`](Self::start) yields its opening
    /// request.
    pub fn new(block_id: Digest, ladder: Ladder) -> RxEngine {
        RxEngine {
            block_id,
            ladder,
            rung: RungKind::Graphene,
            retries: 0,
            phase: Phase::Requested,
            header: None,
            order_bytes: Vec::new(),
        }
    }

    /// The announcement input: (re)start at the first rung and return the
    /// opening request.
    pub fn start(&mut self, mempool: &Mempool) -> Message {
        self.rung = RungKind::Graphene;
        self.retries = 0;
        self.phase = Phase::Requested;
        self.request(mempool)
    }

    /// Current rung.
    pub fn rung(&self) -> RungKind {
        self.rung
    }

    /// Bytes of in-flight rateless decode state, while a cell stream is
    /// being decoded.
    pub fn rateless_state_bytes(&self) -> Option<u64> {
        match &self.phase {
            Phase::Rateless { decoder, .. } => Some(decoder.state_bytes()),
            _ => None,
        }
    }

    /// A decoded message arrived from the server.
    pub fn on_message(&mut self, msg: &Message, mempool: &Mempool) -> Step {
        if msg.response_block_id() != Some(self.block_id) {
            return Step::Ignore; // not a block payload, or another block's
        }
        match msg {
            Message::GrapheneBlock(m) => self.on_graphene_block(m, mempool),
            Message::GrapheneRecovery(m) => self.on_graphene_recovery(m, mempool),
            Message::RatelessCells(m) => self.on_rateless_cells(m, mempool),
            Message::BlockTxn(m) => self.on_block_txn(m, mempool),
            Message::XthinBlock(m) => self.on_xthin_block(m, mempool),
            Message::CmpctBlock(m) => self.on_cmpct_block(m, mempool),
            // The terminal rung, whatever the session was waiting for.
            Message::FullBlock(m) => {
                validated(m.header, m.txns.iter().map(Transaction::id).copied().collect())
            }
            _ => Step::Ignore,
        }
    }

    /// The timer fired (or, from inside the engine, an attempt failed to
    /// decode through nobody's provable fault): retry within the current
    /// rung while its budget lasts, else climb one rung.
    pub fn on_timeout(&mut self, mempool: &Mempool) -> Step {
        let policy = match self.ladder {
            Ladder::Graphene(_, policy) => policy,
            _ => None,
        };
        if let (Phase::Rateless { decoder, .. }, Some(policy)) = (&self.phase, policy) {
            if self.retries < policy.rateless_max_batches {
                // A lost or shed window: the stream is deterministic, so
                // ask for the same window again.
                self.retries += 1;
                let msg = Message::GetMoreCells(GetMoreCellsMsg {
                    block_id: self.block_id,
                    from_index: decoder.received(),
                    count: decoder.suggested_batch() as u32,
                });
                return Step::Send { msg, retry: true };
            }
        }
        let failed = std::mem::replace(&mut self.phase, Phase::Requested);
        match (self.rung, policy) {
            (RungKind::Graphene, Some(policy)) => match failed {
                Phase::P2 { state, n } if policy.rateless => {
                    return Step::Send { msg: self.open_stream(*state, n), retry: true };
                }
                _ if policy.graphene_retries > 0 => {
                    self.rung = RungKind::GrapheneRetry;
                    self.retries = 1;
                }
                _ => self.rung = RungKind::ShortIdFetch,
            },
            (RungKind::Graphene, None) => {
                let attempts = match self.ladder {
                    Ladder::Graphene(..) => 1,
                    Ladder::Plain | Ladder::Xthin { .. } => PLAIN_ATTEMPTS,
                };
                if self.retries.saturating_add(1) < attempts {
                    self.retries += 1;
                } else {
                    self.rung = RungKind::FullBlock;
                }
            }
            (RungKind::GrapheneRetry, Some(policy)) if self.retries < policy.graphene_retries => {
                self.retries += 1;
            }
            (RungKind::GrapheneRetry | RungKind::Rateless, _) => {
                self.rung = RungKind::ShortIdFetch;
            }
            (RungKind::ShortIdFetch, _) => self.rung = RungKind::FullBlock,
            (RungKind::FullBlock, _) => return Step::Exhausted,
        }
        Step::Send { msg: self.request(mempool), retry: true }
    }

    /// The driver's resource-pressure input: give up the current rung now,
    /// whatever retry budget it has left, and climb.
    pub fn abandon_rung(&mut self, mempool: &Mempool) -> Step {
        self.retries = u32::MAX;
        self.on_timeout(mempool)
    }

    /// The request that opens (or repeats) the current rung. The rateless
    /// rung's windows depend on decoder state and are built where that
    /// state is at hand.
    fn request(&self, mempool: &Mempool) -> Message {
        let block_id = self.block_id;
        // Only a Graphene server reads the count.
        let mempool_count =
            if matches!(self.ladder, Ladder::Graphene(..)) { mempool.len() as u64 } else { 0 };
        match (self.rung, self.ladder) {
            (RungKind::Graphene, Ladder::Xthin { filter_fpr }) => {
                shortid_request(block_id, mempool, filter_fpr)
            }
            (RungKind::Graphene, _) => Message::GetData(GetDataMsg { block_id, mempool_count }),
            (RungKind::GrapheneRetry, _) => Message::GetGrapheneRetry(GetGrapheneRetryMsg {
                block_id,
                mempool_count,
                attempt: self.retries,
            }),
            (RungKind::ShortIdFetch, Ladder::Graphene(_, Some(policy))) => {
                shortid_request(block_id, mempool, policy.shortid_fpr)
            }
            _ => Message::GetFullBlock(GetFullBlockMsg { block_id }),
        }
    }

    /// Enter the rateless rung: the "no retry cliff" path. Instead of
    /// re-shipping whole inflated sketches, grow a coded-cell stream
    /// against the candidate set the failed attempt already built (mempool
    /// survivors of `S`, i.e. block∩mempool plus `S` false positives): the
    /// symmetric difference to the block's short IDs is small however badly
    /// the original IBLT was sized.
    fn open_stream(&mut self, state: CandidateSet, n: usize) -> Message {
        // First-batch sizing: the partial peel and the candidate-count gap
        // both lower-bound the difference — and both undercount it, because
        // Bloom false positives inflate `z` toward `n` while also joining
        // the difference themselves. 3× covers that undercount plus the
        // codec's ~1.35d overhead, so most degraded relays decode in one
        // batch.
        let d_est =
            (state.partial_left.len() + state.partial_right.len()).max(state.z.abs_diff(n)).max(4);
        let count = (3 * d_est).clamp(8, MAX_CELLS_PER_BATCH) as u32;
        let decoder =
            RatelessDecoder::new(rateless_salt(&self.block_id), state.candidates.shorts());
        self.phase = Phase::Rateless { candidates: state.candidates, decoder: Box::new(decoder) };
        self.rung = RungKind::Rateless;
        self.retries = 0;
        Message::GetMoreCells(GetMoreCellsMsg { block_id: self.block_id, from_index: 0, count })
    }

    fn on_graphene_block(&mut self, m: &GrapheneBlockMsg, mempool: &Mempool) -> Step {
        let Ladder::Graphene(cfg, _) = self.ladder else {
            return Step::Ignore;
        };
        let (why, state) = match protocol1::receiver_decode(m, mempool, &cfg) {
            Ok(ok) => return Step::Done { header: m.header, ordered_ids: ok.ordered_ids },
            // §6.1: a provably hostile IBLT.
            Err((P1Failure::Malformed(why), _)) => return Step::Misbehaviour(why),
            Err(e) => e,
        };
        self.header = Some(m.header);
        self.order_bytes.clone_from(&m.order_bytes);
        // Direct-fetch extension: a *complete* IBLT decode that merely
        // revealed missing transactions already identifies exactly what to
        // fetch — the Protocol 2 structures would carry no new information.
        if cfg.direct_fetch
            && matches!(why, P1Failure::MissingTransactions { .. })
            && state.i_delta.as_ref().is_some_and(Iblt::is_drained)
        {
            let CandidateSet { candidates: mut resolved, partial_left, partial_right, .. } = state;
            resolved.remove_shorts(&partial_right);
            return self.fetch(resolved, partial_left);
        }
        // Every other failure routes through Protocol 2.
        let n = m.block_tx_count as usize;
        let (req, _) = protocol2::receiver_request(&state, self.block_id, n, mempool.len(), &cfg);
        self.phase = Phase::P2 { state: Box::new(state), n };
        send(Message::GrapheneRequest(req))
    }

    fn on_graphene_recovery(&mut self, m: &GrapheneRecoveryMsg, mempool: &Mempool) -> Step {
        let (Ladder::Graphene(cfg, _), Phase::P2 { state, .. }, Some(header)) =
            (self.ladder, &mut self.phase, self.header)
        else {
            return Step::Ignore;
        };
        match protocol2::receiver_complete(state, m, header.merkle_root, &self.order_bytes, &cfg) {
            Ok(ok) if ok.needs_fetch.is_empty() => match ok.ordered_ids {
                Some(ordered_ids) => Step::Done { header, ordered_ids },
                None => self.on_timeout(mempool),
            },
            // One more round: fetch R false positives by short ID.
            Ok(ok) => self.fetch(ok.resolved, ok.needs_fetch),
            // Provably hostile (double-decode on the plain path).
            Err(P2Failure::Malformed(why)) => Step::Misbehaviour(why),
            // Undecodable but not attributable: climb the ladder.
            Err(_) => self.on_timeout(mempool),
        }
    }

    /// Ask for the bodies `resolved` still lacks, by short ID.
    fn fetch(&mut self, resolved: Candidates, short_ids: Vec<u64>) -> Step {
        self.phase = Phase::Fetch { resolved };
        send(Message::GetGrapheneTxn(GetGrapheneTxnMsg { block_id: self.block_id, short_ids }))
    }

    fn on_rateless_cells(&mut self, m: &RatelessCellsMsg, mempool: &Mempool) -> Step {
        if m.salt != rateless_salt(&self.block_id) {
            return Step::Misbehaviour("rateless cells under a foreign salt");
        }
        let (Ladder::Graphene(cfg, Some(policy)), Phase::Rateless { candidates, decoder }) =
            (self.ladder, &mut self.phase)
        else {
            return Step::Ignore; // stale window from a rung we left
        };
        let diff = match decoder.push_cells(m.start_index, &m.cells) {
            // A duplicate or reordered window (retransmission after a
            // timed-out re-request): not attributable, not useful — drop
            // it and let the timer re-request.
            Err(RatelessError::Gap { .. }) => return Step::Ignore,
            // Double-decode: the §6.1 attack in rateless form.
            Err(RatelessError::Malformed(why)) => return Step::Misbehaviour(why),
            Ok(DecodeProgress::NeedMore(_)) if self.retries >= policy.rateless_max_batches => {
                return self.abandon_rung(mempool);
            }
            Ok(DecodeProgress::NeedMore(n)) => {
                self.retries += 1;
                return send(Message::GetMoreCells(GetMoreCellsMsg {
                    block_id: self.block_id,
                    from_index: decoder.received(),
                    count: n.min(MAX_CELLS_PER_BATCH) as u32,
                }));
            }
            Ok(DecodeProgress::Decoded(diff)) => diff,
        };
        // Resolve the decoded difference: `only_local` IDs are `S` false
        // positives and drop out of the candidates; `only_remote` IDs are
        // genuinely missing bodies, fetched by short ID as in Protocol 2's
        // extra round.
        let mut resolved = candidates.clone();
        resolved.remove_shorts(&diff.only_local);
        if diff.only_remote.is_empty() {
            // Decoded but would not finalize: the stream cannot do better.
            return finalize(self.header, &self.order_bytes, &resolved, &cfg)
                .unwrap_or_else(|| self.abandon_rung(mempool));
        }
        self.fetch(resolved, diff.only_remote)
    }

    fn on_block_txn(&mut self, m: &BlockTxnMsg, mempool: &Mempool) -> Step {
        match (&mut self.phase, self.ladder, self.header) {
            (Phase::Fetch { resolved }, Ladder::Graphene(cfg, _), _) => {
                resolved.admit(m.txns.iter().map(Transaction::id));
                // A repair that does not finalize (wrong or garbage bodies,
                // unlucky decode) is not attributable: climb, do not ban.
                finalize(self.header, &self.order_bytes, resolved, &cfg)
                    .unwrap_or_else(|| self.on_timeout(mempool))
            }
            (Phase::Slots { ids, unresolved }, _, Some(header))
                if m.txns.len() == unresolved.len() =>
            {
                for (&i, tx) in unresolved.iter().zip(&m.txns) {
                    ids[i as usize] = *tx.id();
                }
                validated(header, ids.clone())
            }
            _ => Step::Ignore,
        }
    }

    /// Mempool-first short-ID resolution, as deployed clients do (see
    /// `graphene-baselines::xthin` for the §6.1 implications).
    fn on_xthin_block(&mut self, m: &XthinBlockMsg, mempool: &Mempool) -> Step {
        let by_short: HashMap<u64, TxId> = (m.missing.iter().chain(mempool.iter()))
            .map(|tx| (short_id_8(tx.id()), *tx.id()))
            .collect();
        self.fill_slots(m.header, m.short_ids.iter().map(|s| by_short.get(s).copied()))
    }

    /// BIP152: prefilled positions are given; the 6-byte short IDs fill the
    /// rest in order. A short ID two mempool transactions share resolves to
    /// neither.
    fn on_cmpct_block(&mut self, m: &CmpctBlockMsg, mempool: &Mempool) -> Step {
        let key = cmpct_key(&m.header, m.nonce);
        let mut by_short: HashMap<u64, Option<TxId>> = HashMap::new();
        for tx in mempool.iter() {
            by_short
                .entry(short_id_6(key, tx.id()))
                .and_modify(|slot| *slot = None)
                .or_insert(Some(*tx.id()));
        }
        let mut prefilled: Vec<Option<TxId>> = vec![None; m.short_ids.len() + m.prefilled.len()];
        for (i, tx) in &m.prefilled {
            if let Some(slot) = prefilled.get_mut(*i as usize) {
                *slot = Some(*tx.id());
            }
        }
        let mut shorts = m.short_ids.iter();
        let slots = prefilled.into_iter().map(|given| {
            given.or_else(|| shorts.next().and_then(|s| by_short.get(s).copied().flatten()))
        });
        self.fill_slots(m.header, slots)
    }

    /// Finish a short-ID block: every position resolved is `Done` if the
    /// Merkle root agrees; positions nothing resolves cost one
    /// `GetBlockTxn` repair round.
    fn fill_slots(&mut self, header: Header, slots: impl Iterator<Item = Option<TxId>>) -> Step {
        let mut unresolved: Vec<u64> = Vec::new();
        let ids: Vec<TxId> = (slots.enumerate())
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    unresolved.push(i as u64);
                    TxId::ZERO
                })
            })
            .collect();
        if unresolved.is_empty() {
            return validated(header, ids);
        }
        self.header = Some(header);
        self.phase = Phase::Slots { ids, unresolved: unresolved.clone() };
        send(Message::GetBlockTxn(GetBlockTxnMsg { block_id: self.block_id, indexes: unresolved }))
    }
}

/// `Done` if `ids` hash to the header's Merkle root; otherwise the
/// response was useless and the timer decides.
fn validated(header: Header, ordered_ids: Vec<TxId>) -> Step {
    if merkle_root(&ordered_ids) == header.merkle_root {
        Step::Done { header, ordered_ids }
    } else {
        Step::Ignore
    }
}

/// Order a completed candidate set and check it against the header.
fn finalize(
    header: Option<Header>,
    order_bytes: &[u8],
    resolved: &Candidates,
    cfg: &GrapheneConfig,
) -> Option<Step> {
    let header = header?;
    let ordered_ids = resolved.reconstruct(&header.merkle_root, order_bytes, cfg.ordering)?;
    Some(Step::Done { header, ordered_ids })
}

/// An xthin-style request: the whole mempool in a Bloom filter.
fn shortid_request(block_id: Digest, mempool: &Mempool, fpr: f64) -> Message {
    let mut filter = BloomFilter::new(mempool.len().max(1), fpr, block_id.low_u64() ^ SALT_XF);
    filter.insert_batch_by(mempool.txns(), Transaction::id);
    Message::XthinGetData(XthinGetDataMsg { block_id, mempool_filter: filter })
}

/// The stateless Graphene responder: the reply a server holding `block`
/// gives to `req`, or `None` if `req` is not a block request. `block` must
/// be the block `req` names.
///
/// `peer` optionally carries the sender's inv log for this receiver
/// (enables prefilling). `mempool_hint` stands in for the receiver's
/// mempool size where the request does not carry it (Protocol 2 sizes `J`
/// from it in the `m ≈ n` case).
pub fn respond(
    block: &Block,
    peer: Option<&PeerView>,
    req: &Message,
    mempool_hint: usize,
    cfg: &GrapheneConfig,
) -> Option<Message> {
    Some(match req {
        Message::GetData(m) => {
            Message::GrapheneBlock(protocol1::sender_encode(block, m.mempool_count, peer, cfg).0)
        }
        // Theorem 3's decayed β, an inflated IBLT, and a fresh salt.
        Message::GetGrapheneRetry(m) => {
            let tweak = RetryTweak::for_attempt(cfg, m.attempt);
            let (msg, _) =
                protocol1::sender_encode_retry(block, m.mempool_count, peer, cfg, &tweak);
            Message::GrapheneBlock(msg)
        }
        Message::GrapheneRequest(m) => {
            Message::GrapheneRecovery(protocol2::sender_respond(block, m, mempool_hint, cfg))
        }
        // The stream is a deterministic function of `(block, salt)`, so any
        // window is regenerated by replaying from index 0 — no per-receiver
        // stream state to account, shed, or lose in a crash.
        Message::GetMoreCells(m) => {
            let salt = rateless_salt(&m.block_id);
            let mut stream =
                CellStream::new(salt, block.txns().iter().map(|tx| short_id_8(tx.id())));
            stream.skip(m.from_index);
            let cells = stream.cells((m.count as usize).min(MAX_CELLS_PER_BATCH));
            Message::RatelessCells(RatelessCellsMsg {
                block_id: m.block_id,
                salt,
                start_index: m.from_index,
                cells,
            })
        }
        _ => return respond_plain(block, req),
    })
}

/// BIP152 short-ID key derivation: SHA-256 of header ‖ nonce.
fn cmpct_key(header: &Header, nonce: u64) -> SipKey {
    let mut data = Vec::with_capacity(88);
    data.extend_from_slice(&header.to_bytes());
    data.extend_from_slice(&nonce.to_le_bytes());
    let h = sha256(&data);
    let word = |at: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&h.0[at..at + 8]);
        u64::from_le_bytes(w)
    };
    SipKey::new(word(0), word(8))
}

/// A Compact Blocks server's answer to `GetData`: the BIP152 compact block
/// (coinbase prefilled, 6-byte short IDs for the rest) that
/// [`RxEngine`]'s [`Ladder::Plain`] resolves.
pub fn build_cmpctblock(block: &Block) -> CmpctBlockMsg {
    let nonce = block.id().low_u64();
    let key = cmpct_key(block.header(), nonce);
    let prefilled: Vec<(u64, Transaction)> =
        block.txns().first().map(|tx| vec![(0u64, tx.clone())]).unwrap_or_default();
    let short_ids: Vec<u64> =
        block.txns().iter().skip(1).map(|tx| short_id_6(key, tx.id())).collect();
    CmpctBlockMsg { header: *block.header(), nonce, short_ids, prefilled }
}

/// The requests any server answers the same way, Graphene or not: body
/// fetches by short ID or index, the xthin exchange, the full block.
pub fn respond_plain(block: &Block, req: &Message) -> Option<Message> {
    let block_txn = |block_id: Digest, txns: Vec<Transaction>| {
        Message::BlockTxn(BlockTxnMsg { block_id, txns })
    };
    Some(match req {
        Message::GetGrapheneTxn(m) => {
            let lookup: HashMap<u64, &Transaction> =
                block.txns().iter().map(|tx| (short_id_8(tx.id()), tx)).collect();
            let txns = m.short_ids.iter().filter_map(|s| lookup.get(s).map(|tx| (*tx).clone()));
            block_txn(m.block_id, txns.collect())
        }
        Message::GetBlockTxn(m) => {
            let txns = m.indexes.iter().filter_map(|&i| block.txns().get(i as usize).cloned());
            block_txn(m.block_id, txns.collect())
        }
        // Short IDs in block order, plus in full whatever missed the filter.
        Message::XthinGetData(m) => {
            let hits = m.mempool_filter.contains_batch_by(block.txns(), Transaction::id);
            let missing =
                (block.txns().iter().enumerate()).filter(|(j, _)| !hits.get(*j)).map(|(_, tx)| tx);
            Message::XthinBlock(XthinBlockMsg {
                header: *block.header(),
                short_ids: block.txns().iter().map(|tx| short_id_8(tx.id())).collect(),
                missing: missing.cloned().collect(),
            })
        }
        Message::GetFullBlock(_) => Message::FullBlock(FullBlockMsg {
            header: *block.header(),
            txns: block.txns().to_vec(),
        }),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_blockchain::OrderingScheme;

    /// `validated` is the Merkle comparison behind every `Done` that does
    /// not come out of a candidate set (full, xthin and compact blocks): the
    /// block's ids in the block's order pass, and nothing else does.
    #[test]
    fn validated_accepts_the_exact_order_only() {
        let txns = (0..8u64).map(|i| Transaction::new(i.to_le_bytes().to_vec())).collect();
        let block = Block::assemble(Digest::ZERO, 1, txns, OrderingScheme::Ctor);
        let (header, ids) = (*block.header(), block.ids());
        match validated(header, ids.clone()) {
            Step::Done { header: h, ordered_ids } => {
                assert_eq!((h, ordered_ids), (header, ids.clone()))
            }
            other => panic!("the block itself must validate: {other:?}"),
        }
        let mut wrong = ids.clone();
        wrong.swap(0, 1);
        assert!(matches!(validated(header, wrong), Step::Ignore));
        // A superset (an undetected Bloom false positive) must fail too.
        let mut superset = ids;
        superset.push(*Transaction::new(&b"extra"[..]).id());
        assert!(matches!(validated(header, superset), Step::Ignore));
    }
}
