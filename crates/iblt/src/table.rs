//! The IBLT proper: construction, subtraction and peel decoding.
//!
//! A value is hashed once, under the key `(salt, CHECK_TAG)`. The low half
//! of that hash is its checksum and `CellIndexes` spreads the whole of it
//! over the `k` partitions — the one derivation, whether the caller is
//! inserting, erasing or peeling. A whole slice goes in through
//! [`Iblt::insert_batch_by`], which runs the hash a lane per value and
//! lands on the same cells. Both are tested against the element-at-a-time
//! oracle, `ref_iblt_apply` / `ref_peel_cells` in `graphene-bench`.

use crate::cell::{value_hash, Cell, CHECK_TAG};
use crate::{CELL_BYTES, HEADER_BYTES};
use core::fmt;
use graphene_hashes::{mix64, siphash24_batch, FastRem, SipKey};

/// Errors surfaced by decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A value decoded twice. A correctly built IBLT can never do this; it is
    /// the signature of the §6.1 endless-decode-loop attack (an item inserted
    /// into only `k-1` cells), so the peer should be banned.
    Malformed {
        /// The value that was recovered more than once.
        value: u64,
    },
    /// The two IBLTs in a subtraction have incompatible geometry.
    GeometryMismatch {
        /// `(cells, k, salt)` of the left operand.
        left: (usize, u32, u64),
        /// `(cells, k, salt)` of the right operand.
        right: (usize, u32, u64),
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Malformed { value } => {
                write!(f, "malformed IBLT: value {value:#x} decoded twice")
            }
            DecodeError::GeometryMismatch { left, right } => {
                write!(f, "IBLT geometry mismatch: {left:?} vs {right:?} (cells, k, salt)")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reusable working memory for [`Iblt::peel_in_place`].
///
/// Peeling needs a worklist of candidate pure cells and a set of
/// already-decoded values (the §6.1 double-decode defense). Allocating both
/// per peel dominates the decode cost for the small IBLTs Graphene actually
/// ships, so callers that peel in a loop (ping-pong decoding, the parameter
/// search, netsim) hold one `PeelScratch` and reuse it. The seen-set is
/// generation-stamped: clearing it between peels is a counter bump, not a
/// rehash of the table.
#[derive(Debug, Default)]
pub struct PeelScratch {
    /// Worklist of candidate pure cell indexes.
    queue: Vec<usize>,
    /// Decoded values, stamped with the generation that decoded them.
    seen: std::collections::HashMap<u64, u32>,
    /// Current generation; entries with older stamps are logically absent.
    gen: u32,
    /// Cells awaiting batched checksum verification (`count == ±1`).
    cand: Vec<usize>,
}

impl PeelScratch {
    /// Fresh scratch; equivalent to `PeelScratch::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logically empty the scratch without releasing its allocations.
    fn reset(&mut self) {
        self.queue.clear();
        self.gen = match self.gen.checked_add(1) {
            Some(g) => g,
            None => {
                // Generation counter wrapped: stale stamps could collide with
                // the new generation, so physically clear once per 2^32 peels.
                self.seen.clear();
                0
            }
        };
    }
}

/// Outcome of peeling an IBLT (typically a subtraction `A ⊖ B`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodeResult {
    /// Values present in `A` but not `B` (cells that peeled at `count = 1`).
    pub only_left: Vec<u64>,
    /// Values present in `B` but not `A` (cells that peeled at `count = -1`).
    pub only_right: Vec<u64>,
    /// True if every cell emptied — the full symmetric difference was
    /// recovered. When false the lists hold a *partial* decoding (the
    /// hypergraph's 2-core blocked the rest), which ping-pong decoding can
    /// still build on (§4.2).
    pub complete: bool,
}

impl DecodeResult {
    /// Total number of recovered values.
    pub fn len(&self) -> usize {
        self.only_left.len() + self.only_right.len()
    }

    /// True if nothing was recovered.
    pub fn is_empty(&self) -> bool {
        self.only_left.is_empty() && self.only_right.is_empty()
    }
}

/// An Invertible Bloom Lookup Table over 8-byte values.
///
/// ```
/// use graphene_iblt::Iblt;
///
/// // Alice has {1,2,3,4}, Bob has {3,4,5}. Both build IBLTs with identical
/// // geometry and exchange them; the subtraction decodes the difference.
/// let mut a = Iblt::new(12, 3, 99);
/// let mut b = Iblt::new(12, 3, 99);
/// for v in [1u64, 2, 3, 4] { a.insert(v); }
/// for v in [3u64, 4, 5] { b.insert(v); }
/// let mut diff = a.subtract(&b).unwrap();
/// let mut result = diff.peel().unwrap();
/// result.only_left.sort();
/// assert_eq!(result.only_left, vec![1, 2]);
/// assert_eq!(result.only_right, vec![5]);
/// assert!(result.complete);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Iblt {
    cells: Vec<Cell>,
    k: u32,
    salt: u64,
}

impl Iblt {
    /// Create an IBLT with exactly `cells` cells (rounded **up** to a
    /// multiple of `k`, as the paper requires partitions of equal size),
    /// `k` hash functions, and a hash salt.
    ///
    /// Use `graphene-iblt-params` to choose `cells` and `k` for a target
    /// decode rate; this constructor is deliberately mechanism-only.
    pub fn new(cells: usize, k: u32, salt: u64) -> Self {
        let k = k.max(1);
        let cells = cells.max(k as usize);
        let cells = cells.div_ceil(k as usize) * k as usize;
        Iblt { cells: vec![Cell::default(); cells], k, salt }
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of hash functions (= partitions).
    pub fn hash_count(&self) -> u32 {
        self.k
    }

    /// The hash salt.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Borrow the raw cells (used by serialization and tests).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Wire size in bytes.
    pub fn serialized_size(&self) -> usize {
        HEADER_BYTES + self.cells.len() * CELL_BYTES
    }

    /// Fold `value` into the first `copies` of its `k` cells.
    fn apply(&mut self, value: u64, sign: i32, copies: u32) {
        let (check, cells) = self.locate(value);
        for idx in cells.take(copies as usize) {
            self.cells[idx].apply(value, check, sign);
        }
    }

    /// The checksum of `value` and its `k` cell indexes in partition order.
    fn locate(&self, value: u64) -> (u32, CellIndexes) {
        let h = value_hash(self.salt, value);
        (h as u32, self.geometry().of(h))
    }

    /// The walk over this table's partitions, before it is given a hash.
    fn geometry(&self) -> CellIndexes {
        let part = self.cells.len() / self.k as usize;
        CellIndexes { h: 0, k: self.k, part, within: FastRem::new(part as u64), i: 0 }
    }

    /// Insert a value (multiset semantics).
    pub fn insert(&mut self, value: u64) {
        self.apply(value, 1, self.k);
    }

    /// Insert every value of a slice (multiset semantics, as
    /// [`Iblt::insert`] in a loop: a repeated value counts twice).
    pub fn insert_batch(&mut self, values: &[u64]) {
        self.insert_batch_by(values, |&v| v);
    }

    /// [`Iblt::insert_batch`] over the values of `items`, read where they
    /// lie: a block's `&[Transaction]` goes in by its short IDs without a
    /// `Vec<u64>` being collected first.
    ///
    /// The cells are those of one [`Iblt::insert`] per item — folding a
    /// value into a cell commutes, so only the schedule differs: the one
    /// keyed hash runs [`graphene_hashes::SIP_LANES`] values to a kernel
    /// call, and each value's `k` cells follow from its hash alone.
    pub fn insert_batch_by<T>(&mut self, items: &[T], value_of: impl Fn(&T) -> u64) {
        let mut values = [0u64; BUILD_TILE];
        for tile in items.chunks(BUILD_TILE) {
            let values = &mut values[..tile.len()];
            for (value, item) in values.iter_mut().zip(tile) {
                *value = value_of(item);
            }
            self.insert_tile(values);
        }
    }

    /// Insert at most [`BUILD_TILE`] values: one pass hashing them, one
    /// folding each into its `k` cells. Kept out of the generic caller on
    /// measurement: the same two loops instantiated per item type in the
    /// calling crate, or the fold moved into the hash kernel's sink, built
    /// a 2 000-value table in about 80 µs against 44 here.
    fn insert_tile(&mut self, values: &[u64]) {
        let geometry = self.geometry();
        let mut hashes = [0u64; BUILD_TILE];
        let key = SipKey::new(self.salt, CHECK_TAG);
        siphash24_batch([key], values, |&v| [v], |j, [h]| hashes[j] = h);
        for (&value, &h) in values.iter().zip(&hashes) {
            for idx in geometry.of(h) {
                self.cells[idx].apply(value, h as u32, 1);
            }
        }
    }

    /// Erase a value (the inverse of [`Iblt::insert`]; erasing an absent
    /// value leaves a `-1` entry that decodes on the "right" side).
    pub fn erase(&mut self, value: u64) {
        self.apply(value, -1, self.k);
    }

    /// Fault injection: insert `value` into only the first `copies` of its
    /// `k` cells — the §6.1 malformed-IBLT attack, where a peer crafts a
    /// table whose peel would recover the same value twice and (absent the
    /// double-decode check) loop forever. Honest code never calls this; it
    /// exists so adversarial tests and netsim's attacker model can
    /// manufacture provably malformed tables.
    pub fn insert_partial(&mut self, value: u64, copies: u32) {
        self.apply(value, 1, copies);
    }

    /// Cell-wise subtraction `self ⊖ other`. Both IBLTs must share geometry
    /// (cell count, `k`, salt); the result decodes to the symmetric
    /// difference of the two inserted multisets.
    pub fn subtract(&self, other: &Iblt) -> Result<Iblt, DecodeError> {
        if self.cells.len() != other.cells.len() || self.k != other.k || self.salt != other.salt {
            return Err(DecodeError::GeometryMismatch {
                left: (self.cells.len(), self.k, self.salt),
                right: (other.cells.len(), other.k, other.salt),
            });
        }
        let cells = self.cells.iter().zip(&other.cells).map(|(a, b)| a.subtract(b)).collect();
        Ok(Iblt { cells, k: self.k, salt: self.salt })
    }

    /// Cell-wise subtraction `self ⊖ other` written into `out`, reusing
    /// `out`'s cell buffer instead of allocating a fresh table. `out`'s prior
    /// contents are irrelevant; on success it has `self`'s geometry.
    pub fn subtract_into(&self, other: &Iblt, out: &mut Iblt) -> Result<(), DecodeError> {
        if self.cells.len() != other.cells.len() || self.k != other.k || self.salt != other.salt {
            return Err(DecodeError::GeometryMismatch {
                left: (self.cells.len(), self.k, self.salt),
                right: (other.cells.len(), other.k, other.salt),
            });
        }
        out.k = self.k;
        out.salt = self.salt;
        out.cells.clear();
        out.cells.extend(self.cells.iter().zip(&other.cells).map(|(a, b)| a.subtract(b)));
        Ok(())
    }

    /// In-place subtraction from the *left*: `self ← left ⊖ self`.
    ///
    /// This is the decode-side hot path — the receiver rebuilds its local
    /// IBLT (`self`), subtracts it from the sender's (`left`) and peels, so
    /// the local table can be consumed as the difference buffer instead of
    /// allocating a third table per decode attempt.
    pub fn subtract_from(&mut self, left: &Iblt) -> Result<(), DecodeError> {
        if self.cells.len() != left.cells.len() || self.k != left.k || self.salt != left.salt {
            return Err(DecodeError::GeometryMismatch {
                left: (left.cells.len(), left.k, left.salt),
                right: (self.cells.len(), self.k, self.salt),
            });
        }
        for (mine, l) in self.cells.iter_mut().zip(&left.cells) {
            *mine = l.subtract(mine);
        }
        Ok(())
    }

    /// Peel the IBLT, consuming pure cells until none remain.
    ///
    /// Returns the recovered values split by sign and whether decoding
    /// completed. Returns `Err(Malformed)` if any value decodes twice (§6.1
    /// defense). `self` is left in the partially peeled state, which is
    /// exactly what ping-pong decoding needs.
    pub fn peel(&mut self) -> Result<DecodeResult, DecodeError> {
        self.peel_in_place(&mut PeelScratch::new())
    }

    /// [`Iblt::peel`] with caller-provided working memory, so loops that
    /// decode many tables (ping-pong, the parameter search, netsim) pay for
    /// the worklist and seen-set allocations once instead of per attempt.
    ///
    /// Bit-identical — values, element order, remainder — to the
    /// element-at-a-time oracle `ref_peel_cells` in `graphene-bench`.
    ///
    /// The seed scan collects the `count == ±1` candidates in ascending
    /// index order and verifies their checksums a lane each. In the peel
    /// loop proper each popped value costs one hash for its checksum and
    /// `k` cell indexes (the same `CellIndexes` walk `insert` uses) and one
    /// lane call for the purity re-checks of the cells it left at
    /// `count == ±1`. Those `k` cells lie in distinct partitions, so
    /// deferring their re-checks until after all `k` removals cannot change
    /// any outcome — the re-queue order (ascending partition) matches the
    /// oracle's exactly.
    pub fn peel_in_place(
        &mut self,
        scratch: &mut PeelScratch,
    ) -> Result<DecodeResult, DecodeError> {
        let mut result = DecodeResult::default();
        scratch.reset();
        let gen = scratch.gen;
        // Seed worklist: candidate scan, checksums verified in batches.
        scratch.cand.clear();
        scratch
            .cand
            .extend((0..self.cells.len()).filter(|&i| matches!(self.cells[i].count, 1 | -1)));
        push_pure(&self.cells, self.salt, &scratch.cand, &mut scratch.queue);
        while let Some(idx) = scratch.queue.pop() {
            let cell = self.cells[idx];
            if !matches!(cell.count, 1 | -1) {
                continue; // stale queue entry
            }
            let value = cell.key_sum;
            let (check, cells) = self.locate(value);
            if cell.check_sum != check {
                continue; // stale queue entry (no longer pure)
            }
            let sign = cell.count; // ±1
                                   // Track decoded values to detect the malformed-IBLT attack
                                   // (§6.1); stamps older than `gen` are leftovers from earlier
                                   // peels with this scratch and count as absent.
            if scratch.seen.insert(value, gen) == Some(gen) {
                return Err(DecodeError::Malformed { value });
            }
            if sign == 1 {
                result.only_left.push(value);
            } else {
                result.only_right.push(value);
            }
            // Remove the value from all k cells (including this one), then
            // re-check the ones left at count ±1 as one batch.
            scratch.cand.clear();
            for idx in cells {
                self.cells[idx].apply(value, check, -sign);
                if matches!(self.cells[idx].count, 1 | -1) {
                    scratch.cand.push(idx);
                }
            }
            push_pure(&self.cells, self.salt, &scratch.cand, &mut scratch.queue);
        }
        result.complete = self.cells.iter().all(Cell::is_empty_cell);
        Ok(result)
    }

    /// Remove an externally recovered value from this IBLT, with the sign it
    /// decoded at elsewhere (`+1`: subtract; `-1`: add back). This is the
    /// transfer step of ping-pong decoding (§4.2).
    pub fn cancel(&mut self, value: u64, sign: i32) {
        self.apply(value, -sign, self.k);
    }

    /// True if every cell is empty (nothing left to decode).
    pub fn is_drained(&self) -> bool {
        self.cells.iter().all(Cell::is_empty_cell)
    }

    /// Serialize: header (`cells: u32`, `k: u8`, `salt: u64`) then cells as
    /// (`count: i32`, `key_sum: u64`, `check_sum: u32`), all little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        self.write_bytes(&mut out);
        out
    }

    /// Append the serialized form to `out` without allocating a temporary —
    /// byte-identical to [`Iblt::to_bytes`]. This is the wire encoder's
    /// reusable-buffer path (it also lets `graphene-wire` drop its
    /// clone-per-encode of the whole cell array).
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.serialized_size());
        out.extend_from_slice(&(self.cells.len() as u32).to_le_bytes());
        out.push(self.k as u8);
        out.extend_from_slice(&self.salt.to_le_bytes());
        for cell in &self.cells {
            out.extend_from_slice(&cell.count.to_le_bytes());
            out.extend_from_slice(&cell.key_sum.to_le_bytes());
            out.extend_from_slice(&cell.check_sum.to_le_bytes());
        }
    }

    /// Deserialize from [`Iblt::to_bytes`] output. Returns `None` on
    /// truncation or if the header is inconsistent.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < HEADER_BYTES {
            return None;
        }
        let ncells = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
        let k = bytes[4] as u32;
        let salt = u64::from_le_bytes(bytes[5..13].try_into().ok()?);
        if k == 0 || ncells == 0 || !ncells.is_multiple_of(k as usize) {
            return None;
        }
        let body = &bytes[HEADER_BYTES..];
        if body.len() != ncells * CELL_BYTES {
            return None;
        }
        let mut cells = Vec::with_capacity(ncells);
        for chunk in body.chunks_exact(CELL_BYTES) {
            cells.push(Cell {
                count: i32::from_le_bytes(chunk[0..4].try_into().ok()?),
                key_sum: u64::from_le_bytes(chunk[4..12].try_into().ok()?),
                check_sum: u32::from_le_bytes(chunk[12..16].try_into().ok()?),
            });
        }
        Some(Iblt { cells, k, salt })
    }
}

/// Values per tile of [`Iblt::insert_batch_by`]: the tile's values and
/// hashes (4 KB) stay on the stack and in L1 between the hashing pass and
/// the fold into the cells. Nothing a caller could tune — the cells do not
/// depend on it.
const BUILD_TILE: usize = 256;

/// The one place a value's keyed hash becomes cell indexes.
///
/// The iterator yields the paper's partitioned indexes
/// `i·(c/k) + h_i mod (c/k)` for `i = 0..k`, where `h_i` is output `i` of
/// the splitmix64 stream seeded with the hash `h`:
/// `mix64(h + (i + 1)·φ)`, all 64 bits of `h` in every one. Two values
/// with the same `h` share checksum and every cell; two whose hashes agree
/// only in the checksum half land in unrelated cells.
#[derive(Clone, Copy)]
struct CellIndexes {
    h: u64,
    k: u32,
    part: usize,
    /// `% part`; set up once per table, not per value.
    within: FastRem,
    /// Next partition to yield.
    i: u32,
}

impl CellIndexes {
    /// The walk of the value hashed to `h`, from partition 0.
    fn of(self, h: u64) -> Self {
        CellIndexes { h, i: 0, ..self }
    }
}

impl Iterator for CellIndexes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.i == self.k {
            return None;
        }
        /// 2^64 / φ, the splitmix64 increment.
        const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
        let i = self.i as u64;
        self.i += 1;
        let h_i = mix64(self.h.wrapping_add(GOLDEN.wrapping_mul(i + 1)));
        Some(i as usize * self.part + self.within.rem(h_i) as usize)
    }
}

/// Batched purity verification: append to `queue` — in candidate order —
/// every cell of `cand` whose checksum confirms it pure. Candidates must
/// already satisfy `count == ±1`.
fn push_pure(cells: &[Cell], salt: u64, cand: &[usize], queue: &mut Vec<usize>) {
    let key = [SipKey::new(salt, CHECK_TAG)];
    siphash24_batch(
        key,
        cand,
        |&ci| [cells[ci].key_sum],
        |j, [h]| {
            if cells[cand[j]].check_sum == h as u32 {
                queue.push(cand[j]);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[u64], cells: usize, k: u32, salt: u64) -> Iblt {
        let mut t = Iblt::new(cells, k, salt);
        for &v in values {
            t.insert(v);
        }
        t
    }

    #[test]
    fn cell_count_rounds_up_to_multiple_of_k() {
        let t = Iblt::new(10, 3, 0);
        assert_eq!(t.cell_count(), 12);
        assert_eq!(Iblt::new(12, 3, 0).cell_count(), 12);
        assert_eq!(Iblt::new(1, 4, 0).cell_count(), 4);
    }

    #[test]
    fn simple_symmetric_difference() {
        let a = filled(&[1, 2, 3, 4, 5], 30, 3, 7);
        let b = filled(&[4, 5, 6, 7], 30, 3, 7);
        let mut d = a.subtract(&b).unwrap();
        let mut r = d.peel().unwrap();
        assert!(r.complete);
        r.only_left.sort();
        r.only_right.sort();
        assert_eq!(r.only_left, vec![1, 2, 3]);
        assert_eq!(r.only_right, vec![6, 7]);
    }

    #[test]
    fn identical_sets_drain_to_nothing() {
        let a = filled(&[10, 20, 30], 12, 3, 1);
        let b = filled(&[30, 10, 20], 12, 3, 1);
        let mut d = a.subtract(&b).unwrap();
        let r = d.peel().unwrap();
        assert!(r.complete);
        assert!(r.is_empty());
    }

    #[test]
    fn direct_decode_without_subtraction() {
        let mut t = filled(&[100, 200, 300], 24, 4, 2);
        let mut r = t.peel().unwrap();
        assert!(r.complete);
        r.only_left.sort();
        assert_eq!(r.only_left, vec![100, 200, 300]);
        assert!(t.is_drained());
    }

    #[test]
    fn erase_creates_negative_entries() {
        let mut t = Iblt::new(12, 3, 3);
        t.erase(55);
        let r = t.peel().unwrap();
        assert!(r.complete);
        assert_eq!(r.only_right, vec![55]);
    }

    #[test]
    fn geometry_mismatch_detected() {
        let a = Iblt::new(12, 3, 0);
        for b in [Iblt::new(24, 3, 0), Iblt::new(12, 4, 0), Iblt::new(12, 3, 9)] {
            assert!(matches!(a.subtract(&b), Err(DecodeError::GeometryMismatch { .. })));
        }
    }

    #[test]
    fn overload_fails_gracefully() {
        // 6 cells cannot hold a 50-item difference: decode must report
        // incomplete, not loop or panic.
        let t = filled(&(0u64..50).collect::<Vec<_>>(), 6, 3, 4);
        let mut d = t.clone();
        let r = d.peel().unwrap();
        assert!(!r.complete);
        assert!(r.len() < 50);
    }

    #[test]
    fn partial_decode_is_consistent() {
        // Whatever *is* recovered from an overloaded IBLT must be a subset of
        // the true difference.
        let values: Vec<u64> = (1000..1060).collect();
        let t = filled(&values, 24, 3, 5);
        let mut d = t.clone();
        let r = d.peel().unwrap();
        for v in r.only_left.iter().chain(&r.only_right) {
            assert!(values.contains(v), "phantom value {v}");
        }
    }

    #[test]
    fn malformed_iblt_detected() {
        // §6.1 attack: insert a value into only k-1 cells by manipulating raw
        // cells. Peeling the honest construction of the same value then
        // yields a -1 phantom that re-decodes the value; the defense fires.
        let mut attacker = Iblt::new(12, 3, 6);
        let value = 0xbad;
        let (check, idxs) = attacker.locate(value);
        // Insert into only the first k-1 cells.
        for i in idxs.take(2) {
            attacker.cells[i].apply(value, check, 1);
        }
        // The receiver subtracts an IBLT containing the honest insertion.
        let honest = filled(&[value], 12, 3, 6);
        let mut d = attacker.subtract(&honest).unwrap();
        match d.peel() {
            // Either the defense fires...
            Err(DecodeError::Malformed { value: v }) => assert_eq!(v, value),
            // ...or the peel terminates without looping (also acceptable:
            // the attack's goal was an endless loop).
            Ok(r) => assert!(!r.complete || r.len() <= 2),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn decode_rate_reasonable_when_sized_generously() {
        // τ = 3, k = 4 for 20 items: decodes nearly always. (Small IBLTs
        // need a large hedge — exactly the paper's Fig. 7 observation; the
        // precise τ for a target rate comes from graphene-iblt-params.)
        let mut failures = 0;
        for trial in 0..200u64 {
            let values: Vec<u64> = (0..20).map(|i| trial * 1000 + i).collect();
            let t = filled(&values, 60, 4, trial);
            let r = t.clone().peel().unwrap();
            if !r.complete {
                failures += 1;
            }
        }
        assert!(failures <= 4, "{failures}/200 failures at τ=3");
    }

    #[test]
    fn serialization_roundtrip() {
        let t = filled(&[9, 8, 7, 6], 24, 3, 42);
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), t.serialized_size());
        let back = Iblt::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn deserialization_rejects_corruption() {
        let t = filled(&[1, 2, 3], 12, 3, 1);
        let bytes = t.to_bytes();
        assert!(Iblt::from_bytes(&bytes[..5]).is_none()); // truncated header
        assert!(Iblt::from_bytes(&bytes[..bytes.len() - 1]).is_none()); // truncated body
        let mut bad_k = bytes.clone();
        bad_k[4] = 0;
        assert!(Iblt::from_bytes(&bad_k).is_none());
        let mut bad_cells = bytes.clone();
        bad_cells[0..4].copy_from_slice(&7u32.to_le_bytes()); // 7 % 3 != 0
        assert!(Iblt::from_bytes(&bad_cells).is_none());
    }

    #[test]
    fn partial_insert_triggers_malformed_detection() {
        // The §6.1 attack: one value present in only k−1 of its cells. When
        // the rest of the table peels cleanly, the value decodes from one of
        // its k−1 cells, removal at all k indexes leaves a phantom −1 copy
        // in the untouched cell, and that phantom decodes the same value
        // again — which peel() must report as Malformed, not loop on.
        let mut detected = 0;
        for salt in 0..20u64 {
            let mut evil = Iblt::new(30, 3, salt);
            for v in 1..=4u64 {
                evil.insert(v);
            }
            evil.insert_partial(0xbad, 2);
            let honest = filled(&[1, 2, 3, 4], 30, 3, salt);
            let mut d = evil.subtract(&honest).unwrap();
            match d.peel() {
                Err(DecodeError::Malformed { value }) => {
                    assert_eq!(value, 0xbad);
                    detected += 1;
                }
                Ok(r) => assert!(!r.complete, "a partial insert cannot decode cleanly"),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // Detection depends on the phantom cell staying pure; with a small
        // clean difference it should be the overwhelmingly common case.
        assert!(detected >= 15, "only {detected}/20 malformed tables detected");
    }

    #[test]
    fn subtract_into_and_from_match_subtract() {
        let a = filled(&[1, 2, 3, 4, 5], 30, 3, 7);
        let b = filled(&[4, 5, 6, 7], 30, 3, 7);
        let reference = a.subtract(&b).unwrap();

        let mut out = Iblt::new(3, 1, 0); // wrong geometry; must be overwritten
        a.subtract_into(&b, &mut out).unwrap();
        assert_eq!(out, reference);

        let mut in_place = b.clone();
        in_place.subtract_from(&a).unwrap();
        assert_eq!(in_place, reference);

        // Geometry mismatches are still caught.
        let odd = Iblt::new(12, 4, 7);
        assert!(matches!(
            a.subtract_into(&odd, &mut out),
            Err(DecodeError::GeometryMismatch { .. })
        ));
        let mut odd2 = odd.clone();
        assert!(matches!(odd2.subtract_from(&a), Err(DecodeError::GeometryMismatch { .. })));
    }

    #[test]
    fn peel_in_place_scratch_reuse_is_equivalent() {
        // The same scratch across many peels (including a Malformed abort in
        // the middle) must give the same answers as fresh-scratch peels.
        let mut scratch = PeelScratch::new();
        for salt in 0..30u64 {
            let values: Vec<u64> = (0..15).map(|i| salt * 1000 + i).collect();
            let t = filled(&values, 24, 3, salt);
            let reference = t.clone().peel().unwrap();
            let reused = t.clone().peel_in_place(&mut scratch).unwrap();
            assert_eq!(reference, reused, "salt {salt}");

            // A malformed table mid-stream must not poison later peels.
            let mut evil = filled(&values, 24, 3, salt);
            evil.insert_partial(0xbad, 2);
            let mut honest = filled(&values, 24, 3, salt);
            honest.insert(0xbad);
            let mut d = evil.subtract(&honest).unwrap();
            let want = d.clone().peel();
            assert_eq!(want, d.peel_in_place(&mut scratch), "malformed salt {salt}");
        }
    }

    #[test]
    fn write_bytes_matches_to_bytes() {
        let t = filled(&[9, 8, 7, 6], 24, 3, 42);
        let mut appended = vec![0xaa]; // pre-existing prefix survives
        t.write_bytes(&mut appended);
        assert_eq!(&appended[..1], &[0xaa]);
        assert_eq!(&appended[1..], t.to_bytes().as_slice());
    }

    #[test]
    fn multiset_semantics() {
        // Inserting a value twice: count 2 in its cells; subtracting one copy
        // leaves one decodable copy.
        let mut a = Iblt::new(12, 3, 8);
        a.insert(77);
        a.insert(77);
        let b = filled(&[77], 12, 3, 8);
        let mut d = a.subtract(&b).unwrap();
        let r = d.peel().unwrap();
        assert!(r.complete);
        assert_eq!(r.only_left, vec![77]);
    }
}
