//! Protocol 1: relay a block whose transactions the receiver (probably)
//! already has (paper §3.1, Fig. 2).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::candidates::Candidates;
use crate::config::GrapheneConfig;
use crate::encode_cache::{CacheKey, EncodeCache, MBucket};
use crate::error::P1Failure;
use crate::ordering::encode_order;
use crate::params::{optimal_a, AChoice};
use bytes::Bytes;
use graphene_blockchain::{Block, Mempool, OrderingScheme, PeerView, Transaction, TxId};
use graphene_bloom::{params::theoretical_fpr, BloomFilter};
use graphene_hashes::short_id_8;
use graphene_iblt::Iblt;
use graphene_iblt_params::params_for;
use graphene_wire::messages::{GrapheneBlockMsg, Message};
use graphene_wire::{Decode, Encode};

/// Salt-domain constants so S, I, R, J and F are mutually independent even
/// though all are derived from the block ID.
pub(crate) const SALT_S: u64 = 0x5331;
pub(crate) const SALT_I: u64 = 0x4931;
pub(crate) const SALT_R: u64 = 0x5232;
pub(crate) const SALT_J: u64 = 0x4a32;
pub(crate) const SALT_F: u64 = 0x4633;

/// Build Protocol 1's `S` + `I` message for `block`, given the receiver's
/// reported mempool size `m` (from `getdata`).
///
/// `peer` (when [`GrapheneConfig::prefill`] is set) supplies the per-peer
/// inv log: block transactions never announced to this peer are attached in
/// full, since they cannot be in the receiver's mempool.
pub fn sender_encode(
    block: &Block,
    mempool_count: u64,
    peer: Option<&PeerView>,
    cfg: &GrapheneConfig,
) -> (GrapheneBlockMsg, AChoice) {
    sender_encode_retry(block, mempool_count, peer, cfg, &RetryTweak::initial(cfg))
}

/// Parameter inflation for one rung of the recovery ladder's re-request.
///
/// Theorem 3's β-assurance model bounds each attempt's failure probability
/// by `1 − β`; independent retries with fresh salts drive the residual
/// failure rate down geometrically. Attempt `t` therefore decays the
/// failure budget `1 − β` by `BETA_DECAY^t`, inflates the IBLT sizing set
/// `a*` by `INFLATION^t`, and perturbs the salt base so `S` and `I` hash
/// independently of every earlier attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryTweak {
    /// Retry number (0 = the original encode, which this leaves untouched).
    pub attempt: u32,
    /// β-assurance used for this attempt.
    pub beta: f64,
    /// Multiplier applied to the IBLT sizing set `a*`.
    pub inflation: f64,
    /// XOR'd into the salt base (0 for attempt 0).
    pub salt_tweak: u64,
}

impl RetryTweak {
    /// Per-attempt shrink factor of the failure budget `1 − β`.
    pub const BETA_DECAY: f64 = 0.25;
    /// Per-attempt multiplier on the IBLT's recoverable-set size.
    pub const INFLATION: f64 = 1.5;

    /// The identity tweak: attempt 0 reproduces `sender_encode` exactly.
    pub fn initial(cfg: &GrapheneConfig) -> RetryTweak {
        RetryTweak { attempt: 0, beta: cfg.beta, inflation: 1.0, salt_tweak: 0 }
    }

    /// The tweak for retry number `attempt` (1-based).
    pub fn for_attempt(cfg: &GrapheneConfig, attempt: u32) -> RetryTweak {
        if attempt == 0 {
            return RetryTweak::initial(cfg);
        }
        let budget = (1.0 - cfg.beta) * Self::BETA_DECAY.powi(attempt as i32);
        // SplitMix64-style scramble so each attempt's salt domain is
        // uncorrelated with the block id's low bits.
        let mut s = (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        s = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        RetryTweak {
            attempt,
            beta: 1.0 - budget,
            inflation: Self::INFLATION.powi(attempt as i32),
            salt_tweak: s ^ (s >> 31),
        }
    }
}

/// [`sender_encode`] with per-attempt parameter inflation: the recovery
/// ladder's "try again, bigger and fresher" rung. The receiver needs no
/// matching knob — every salt and geometry it uses travels in the message.
pub fn sender_encode_retry(
    block: &Block,
    mempool_count: u64,
    peer: Option<&PeerView>,
    cfg: &GrapheneConfig,
    tweak: &RetryTweak,
) -> (GrapheneBlockMsg, AChoice) {
    let n = block.len();
    let mut choice = optimal_a(n, mempool_count as usize, tweak.beta, cfg.iblt_rate_denom);
    if tweak.inflation > 1.0 {
        let inflated = ((choice.a_star.max(1) as f64) * tweak.inflation).ceil() as usize;
        choice.a_star = inflated;
        choice.iblt = params_for(inflated, cfg.iblt_rate_denom);
    }
    let salt_base = block.id().low_u64() ^ tweak.salt_tweak;

    let mut bloom_s = BloomFilter::new(n.max(1), choice.fpr, salt_base ^ SALT_S);
    let mut iblt_i = Iblt::new(choice.iblt.c, choice.iblt.k, salt_base ^ SALT_I);
    bloom_s.insert_batch_by(block.txns(), Transaction::id);
    iblt_i.insert_batch_by(block.txns(), |tx| short_id_8(tx.id()));

    let prefilled = match (cfg.prefill, peer) {
        (true, Some(view)) => {
            block.txns().iter().filter(|tx| !view.knows(tx.id())).cloned().collect()
        }
        _ => Vec::new(),
    };

    let order_bytes = match cfg.ordering {
        OrderingScheme::Ctor => Vec::new(),
        OrderingScheme::MinerChosen => encode_order(&block.ids()),
    };

    let msg = GrapheneBlockMsg {
        header: *block.header(),
        block_tx_count: n as u64,
        bloom_s,
        iblt_i,
        prefilled,
        order_bytes,
    };
    (msg, choice)
}

/// Result of a cache-aware Protocol 1 encode.
#[derive(Debug, Clone)]
pub struct CachedEncode {
    /// The Protocol 1 message (decoded back from the frame on a hit).
    pub msg: GrapheneBlockMsg,
    /// The complete wire frame (`type ‖ len ‖ body`) — the exact bytes a
    /// relay node puts on every socket in this mempool-size class.
    pub frame: Bytes,
    /// True when the frame was served from the cache (no encoding work).
    pub from_cache: bool,
    /// The parameter choice, when a fresh encode computed one (`None` on a
    /// cache hit — the parameters are baked into the frame).
    pub choice: Option<AChoice>,
}

/// [`sender_encode_retry`] behind the encode-once relay cache.
///
/// Unlike the per-receiver entry points, this *always* encodes at the
/// canonical `m` of the receiver's [`MBucket`] (rounded up to the next
/// power of two) so that every receiver in a size class gets a
/// byte-identical frame — whether it came from the cache or a fresh
/// encode. Pass `cache: None` to get the canonical frame without caching
/// (the equivalence oracle the tests compare against).
///
/// Non-cacheable encodings — retry rungs with fresh salts, peer-specific
/// prefilled frames — bypass the cache entirely (never served from it,
/// never stored into it) and are counted as bypasses.
pub fn sender_encode_cached(
    block: &Block,
    mempool_count: u64,
    peer: Option<&PeerView>,
    cfg: &GrapheneConfig,
    tweak: &RetryTweak,
    cache: Option<&EncodeCache>,
) -> CachedEncode {
    let bucket = MBucket::for_count(mempool_count);
    let peer_specific = cfg.prefill && peer.is_some();
    let usable = match cache {
        Some(c) if EncodeCache::cacheable(tweak, peer_specific) => Some(c),
        Some(c) => {
            c.note_bypass();
            None
        }
        None => None,
    };
    let key = CacheKey::graphene(block.id(), bucket);
    if let Some(c) = usable {
        if let Some(frame) = c.lookup(&key) {
            // Round-trip the cached frame back into a message so callers
            // (byte accounting, receiver simulation) see exactly what the
            // wire carries. A frame we encoded ourselves always decodes;
            // if it somehow does not, fall through to a fresh encode
            // rather than serving a corrupt frame.
            if let Ok(Message::GrapheneBlock(msg)) = Message::decode_exact(&frame) {
                return CachedEncode { msg, frame, from_cache: true, choice: None };
            }
        }
    }
    let (msg, choice) = sender_encode_retry(block, bucket.canonical_m(), peer, cfg, tweak);
    let frame = Bytes::from(Message::GrapheneBlock(msg.clone()).to_vec());
    if let Some(c) = usable {
        c.insert(key, frame.clone());
    }
    CachedEncode { msg, frame, from_cache: false, choice: Some(choice) }
}

/// Receiver-side candidate state, preserved for Protocol 2 when Protocol 1
/// fails.
#[derive(Debug)]
pub struct CandidateSet {
    /// `Z`: the mempool survivors of `S` plus the prefilled transactions,
    /// one per short ID, in txid order. After a failed decode this is the
    /// set as Protocol 1 built it — the false positives a partial peel
    /// found are listed in `partial_right`, not yet removed.
    pub candidates: Candidates,
    /// `z = |Z|`: number of candidates.
    pub z: usize,
    /// The receiver's estimate of `f_S`, recomputed from the filter geometry
    /// (`f_S` is not transmitted).
    pub fpr_s: f64,
    /// The partially peeled `I ⊖ I′`, kept for §4.2 ping-pong decoding.
    pub i_delta: Option<Iblt>,
    /// Short IDs already peeled out of `I ⊖ I′` on the "in block, not in
    /// candidates" side. Ping-pong alignment in Protocol 2 must account for
    /// these — they are no longer inside `i_delta`'s cells.
    pub partial_left: Vec<u64>,
    /// Short IDs already peeled on the "candidate, not in block" side
    /// (known S false positives).
    pub partial_right: Vec<u64>,
}

/// Outcome of a successful Protocol 1 decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P1Success {
    /// The block's transaction IDs in block order (Merkle-validated).
    pub ordered_ids: Vec<TxId>,
}

/// Attempt to decode a Graphene block against the local mempool.
///
/// On failure returns the failure reason *and* the candidate state that
/// Protocol 2 builds on ([`crate::protocol2::receiver_request`]).
#[allow(clippy::result_large_err)] // the Err carries Protocol 2's working state by design
pub fn receiver_decode(
    msg: &GrapheneBlockMsg,
    mempool: &Mempool,
    cfg: &GrapheneConfig,
) -> Result<P1Success, (P1Failure, CandidateSet)> {
    let n = msg.block_tx_count as usize;

    // Step 4a: the candidate set Z — mempool IDs that pass S, then the
    // prefilled bodies. The mempool pass (§6.3): S reads every id where it
    // lies in the pool. Two survivors sharing a short ID are unresolvable
    // (§6.1) and the later one in the pool stands in for both; a prefilled
    // transaction is authoritative (the sender put it in the block), so it
    // displaces a survivor of its short ID silently.
    let hits = msg.bloom_s.contains_batch_by(mempool.txns(), Transaction::id);
    let (mut candidates, collision) =
        Candidates::from_survivors(mempool.txns(), &hits, Transaction::id);
    candidates.admit(msg.prefilled.iter().map(Transaction::id));
    let z = candidates.len();
    let fpr_s = if msg.bloom_s.bit_len() == 0 {
        1.0
    } else {
        theoretical_fpr(msg.bloom_s.bit_len(), msg.bloom_s.hash_count(), n)
    };

    let mut state = CandidateSet {
        candidates,
        z,
        fpr_s,
        i_delta: None,
        partial_left: Vec::new(),
        partial_right: Vec::new(),
    };
    if collision {
        // Two distinct txids share a short ID: the IBLT algebra over short
        // IDs is no longer injective (§6.1). Bail out to recovery.
        return Err((P1Failure::ShortIdCollision, state));
    }

    // Step 4b: I′ over the candidates' short IDs, then peel I ⊖ I′.
    let mut iblt_prime =
        Iblt::new(msg.iblt_i.cell_count(), msg.iblt_i.hash_count(), msg.iblt_i.salt());
    iblt_prime.insert_batch_by(state.candidates.ids(), short_id_8);
    // Consume I′ as the difference buffer (I ⊖ I′ in place) — no third
    // table allocation per decode attempt.
    if iblt_prime.subtract_from(&msg.iblt_i).is_err() {
        // Unreachable for this code path (I′ copies the message's own
        // geometry), but a hostile message deserves the hostile label.
        return Err((P1Failure::Malformed("iblt geometry self-mismatch"), state));
    }
    let mut delta = iblt_prime;
    let peeled = match delta.peel() {
        Ok(r) => r,
        Err(_) => {
            // The peel recovered the same value twice. I′ was built honestly
            // here, so the only explanation is a sender that inserted an
            // item into fewer than k cells — the §6.1 attack. Provable:
            // callers should ban. The half-mutated difference is useless for
            // ping-pong — drop it.
            return Err((P1Failure::Malformed("iblt double-decode (§6.1)"), state));
        }
    };

    if !peeled.complete {
        state.i_delta = Some(delta);
        state.partial_left = peeled.only_left;
        state.partial_right = peeled.only_right;
        return Err((P1Failure::IbltIncomplete, state));
    }

    // Step 4c: adjust the candidate set. `only_right` are S false positives;
    // `only_left` are block transactions the receiver does not hold at all.
    if !peeled.only_left.is_empty() {
        let count = peeled.only_left.len();
        state.i_delta = Some(delta); // fully drained; partials carry the diff
        state.partial_left = peeled.only_left;
        state.partial_right = peeled.only_right;
        return Err((P1Failure::MissingTransactions { count }, state));
    }
    state.candidates.remove_shorts(&peeled.only_right);

    // Order the adjusted candidate set and validate the Merkle commitment.
    match state.candidates.reconstruct(&msg.header.merkle_root, &msg.order_bytes, cfg.ordering) {
        Some(ordered_ids) => Ok(P1Success { ordered_ids }),
        None => Err((P1Failure::MerkleMismatch, state)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_blockchain::{Scenario, ScenarioParams, Transaction};
    use graphene_bloom::Membership;
    use graphene_hashes::Digest;
    use rand::{rngs::StdRng, SeedableRng};

    fn cfg() -> GrapheneConfig {
        GrapheneConfig::default()
    }

    fn scenario(n: usize, extra: f64, held: f64, seed: u64) -> Scenario {
        let params = ScenarioParams {
            block_size: n,
            extra_mempool_multiple: extra,
            block_fraction_in_mempool: held,
            ..Default::default()
        };
        Scenario::generate(&params, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn happy_path_decodes() {
        let s = scenario(200, 2.0, 1.0, 1);
        let (msg, choice) = sender_encode(&s.block, s.receiver_mempool.len() as u64, None, &cfg());
        assert!(choice.total > 0);
        let got = receiver_decode(&msg, &s.receiver_mempool, &cfg()).expect("protocol 1 decodes");
        assert_eq!(got.ordered_ids, s.block.ids());
    }

    #[test]
    fn repeated_blocks_mostly_decode() {
        let mut failures = 0;
        for seed in 0..50 {
            let s = scenario(100, 3.0, 1.0, seed);
            let (msg, _) = sender_encode(&s.block, s.receiver_mempool.len() as u64, None, &cfg());
            if receiver_decode(&msg, &s.receiver_mempool, &cfg()).is_err() {
                failures += 1;
            }
        }
        assert!(failures <= 1, "{failures}/50 protocol-1 failures");
    }

    #[test]
    fn missing_transactions_detected() {
        let s = scenario(200, 1.0, 0.5, 2);
        let (msg, _) = sender_encode(&s.block, s.receiver_mempool.len() as u64, None, &cfg());
        match receiver_decode(&msg, &s.receiver_mempool, &cfg()) {
            Err((P1Failure::MissingTransactions { count }, state)) => {
                assert!(count > 50, "roughly half of 200 should be missing, got {count}");
                assert!(state.z > 0);
                assert!(state.i_delta.is_some());
            }
            Err((P1Failure::IbltIncomplete, _)) => {
                // Also acceptable: 100 missing txns usually exceed the
                // IBLT's capacity.
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn m_equals_n_uses_match_all_filter() {
        let s = scenario(300, 0.0, 1.0, 3);
        assert_eq!(s.receiver_mempool.len(), 300);
        let (msg, choice) = sender_encode(&s.block, 300, None, &cfg());
        assert_eq!(choice.fpr, 1.0);
        assert_eq!(msg.bloom_s.serialized_size(), 1);
        let got = receiver_decode(&msg, &s.receiver_mempool, &cfg()).expect("decodes");
        assert_eq!(got.ordered_ids.len(), 300);
    }

    #[test]
    fn prefill_covers_unannounced_txns() {
        let s = scenario(100, 1.0, 1.0, 4);
        // The peer view knows everything except three block txns.
        let mut view = PeerView::new();
        let ids = s.block.ids();
        for id in ids.iter().skip(3) {
            view.record(*id);
        }
        // Receiver's mempool is missing those same three.
        let mut pool = s.receiver_mempool.clone();
        for id in ids.iter().take(3) {
            pool.remove(id);
        }
        let (msg, _) = sender_encode(&s.block, pool.len() as u64, Some(&view), &cfg());
        assert_eq!(msg.prefilled.len(), 3);
        let got = receiver_decode(&msg, &pool, &cfg()).expect("prefill rescues the decode");
        assert_eq!(got.ordered_ids, s.block.ids());
    }

    #[test]
    fn miner_order_roundtrips() {
        let mut c = cfg();
        c.ordering = OrderingScheme::MinerChosen;
        let params = ScenarioParams {
            block_size: 150,
            extra_mempool_multiple: 1.0,
            block_fraction_in_mempool: 1.0,
            ordering: OrderingScheme::MinerChosen,
            ..Default::default()
        };
        let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(5));
        let (msg, _) = sender_encode(&s.block, s.receiver_mempool.len() as u64, None, &c);
        assert!(!msg.order_bytes.is_empty());
        let got = receiver_decode(&msg, &s.receiver_mempool, &c).expect("decodes");
        assert_eq!(got.ordered_ids, s.block.ids());
    }

    #[test]
    fn corrupted_root_fails_merkle() {
        let s = scenario(50, 1.0, 1.0, 6);
        let (mut msg, _) = sender_encode(&s.block, s.receiver_mempool.len() as u64, None, &cfg());
        msg.header.merkle_root = Digest([0xee; 32]);
        match receiver_decode(&msg, &s.receiver_mempool, &cfg()) {
            Err((P1Failure::MerkleMismatch, _)) => {}
            other => panic!("expected merkle mismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_mempool_yields_missing() {
        let s = scenario(80, 0.0, 1.0, 7);
        let (msg, _) = sender_encode(&s.block, 0, None, &cfg());
        let empty = Mempool::new();
        match receiver_decode(&msg, &empty, &cfg()) {
            Err((P1Failure::MissingTransactions { count }, _)) => assert_eq!(count, 80),
            Err((P1Failure::IbltIncomplete, _)) => {} // capacity exceeded
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn extra_unrelated_txn_is_filtered_or_caught() {
        // A mempool FP that sneaks through S must be peeled away by I.
        let s = scenario(120, 4.0, 1.0, 8);
        let mut pool = s.receiver_mempool.clone();
        pool.insert(Transaction::new(&b"unrelated"[..]));
        let (msg, _) = sender_encode(&s.block, pool.len() as u64, None, &cfg());
        let got = receiver_decode(&msg, &pool, &cfg()).expect("decodes");
        assert_eq!(got.ordered_ids, s.block.ids());
    }
}
