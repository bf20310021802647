//! A single IBLT cell.

use graphene_hashes::{siphash24, SipKey};

/// One IBLT cell: a count, the XOR of inserted values, and the XOR of their
/// checksums.
///
/// The checksum field catches the "phantom pure cell" case the paper
/// describes: after subtraction a cell may have `count == ±1` while its
/// `keySum` is the XOR of several values from both operands; the checksum
/// will not match and the cell is not treated as pure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cell {
    /// Net number of insertions (negative after subtraction if the second
    /// operand inserted more).
    pub count: i32,
    /// XOR of all inserted 8-byte values.
    pub key_sum: u64,
    /// XOR of `check_hash` of all inserted values.
    pub check_sum: u32,
}

impl Cell {
    /// Fold a value into the cell with the given sign (`+1` insert,
    /// `-1` erase).
    #[inline]
    pub fn apply(&mut self, value: u64, check: u32, sign: i32) {
        // Counts arrive off the wire: a hostile or corrupted cell near the
        // `i32` limits must wrap, in every profile, not panic in debug.
        self.count = self.count.wrapping_add(sign);
        self.key_sum ^= value;
        self.check_sum ^= check;
    }

    /// True when the cell provably holds exactly one value: `count == ±1`
    /// and the checksum matches the key sum.
    #[inline]
    pub fn is_pure(&self, salt: u64) -> bool {
        (self.count == 1 || self.count == -1) && self.check_sum == check_hash(salt, self.key_sum)
    }

    /// True when the cell holds nothing at all.
    #[inline]
    pub fn is_empty_cell(&self) -> bool {
        self.count == 0 && self.key_sum == 0 && self.check_sum == 0
    }

    /// Cell-wise subtraction (`self - other`).
    #[inline]
    pub fn subtract(&self, other: &Cell) -> Cell {
        Cell {
            count: self.count.wrapping_sub(other.count),
            key_sum: self.key_sum ^ other.key_sum,
            check_sum: self.check_sum ^ other.check_sum,
        }
    }
}

/// Key-derivation tag of a table's one keyed hash (paired with its salt).
pub(crate) const CHECK_TAG: u64 = 0x4942_4c54_4348;

/// The one keyed hash of a value: its low 32 bits are the checksum, and all
/// 64 go into the cell indexes (`table::CellIndexes`). Keyed by the IBLT
/// salt so that neither checksum nor cell collisions can be manufactured
/// offline for all peers at once (§6.1).
#[inline]
pub(crate) fn value_hash(salt: u64, value: u64) -> u64 {
    siphash24(SipKey::new(salt, CHECK_TAG), &value.to_le_bytes())
}

/// The per-value checksum mixed into [`Cell::check_sum`].
#[inline]
pub fn check_hash(salt: u64, value: u64) -> u32 {
    value_hash(salt, value) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_roundtrip() {
        let mut c = Cell::default();
        let check = check_hash(7, 0xdead);
        c.apply(0xdead, check, 1);
        assert_eq!(c.count, 1);
        assert!(c.is_pure(7));
        c.apply(0xdead, check, -1);
        assert!(c.is_empty_cell());
    }

    #[test]
    fn two_values_not_pure() {
        let mut c = Cell::default();
        c.apply(1, check_hash(7, 1), 1);
        c.apply(2, check_hash(7, 2), 1);
        assert_eq!(c.count, 2);
        assert!(!c.is_pure(7));
    }

    #[test]
    fn negative_pure_after_subtraction() {
        let mut a = Cell::default();
        let mut b = Cell::default();
        b.apply(42, check_hash(7, 42), 1);
        let d = a.subtract(&b);
        assert_eq!(d.count, -1);
        assert!(d.is_pure(7));
        // And the shared value cancels entirely.
        a.apply(42, check_hash(7, 42), 1);
        assert!(a.subtract(&b).is_empty_cell());
    }

    #[test]
    fn phantom_pure_cell_rejected() {
        // count == 1 but keySum is the XOR of three values: the checksum
        // cannot match (except with 2^-32 probability).
        let mut c = Cell::default();
        for v in [10u64, 20, 30] {
            c.apply(v, check_hash(7, v), 1);
        }
        c.apply(10, check_hash(7, 10), -1);
        c.apply(20, check_hash(7, 20), -1);
        assert_eq!(c.count, 1);
        assert!(c.is_pure(7)); // this one is genuinely pure (holds 30)
                               // Now fabricate: count forced to 1 with mismatched sums.
        let fake = Cell { count: 1, key_sum: 10 ^ 20 ^ 30, check_sum: 0 };
        assert!(!fake.is_pure(7));
    }

    /// A count a corrupted frame put at the `i32` limits wraps instead of
    /// overflowing (a debug-profile panic on wire input otherwise).
    #[test]
    fn counts_at_the_limits_wrap() {
        let local = Cell { count: 2, ..Cell::default() };
        let hostile = Cell { count: i32::MIN, ..Cell::default() };
        assert_eq!(local.subtract(&hostile).count, 2i32.wrapping_sub(i32::MIN));
        let mut full = Cell { count: i32::MAX, ..Cell::default() };
        full.apply(1, 0, 1);
        assert_eq!(full.count, i32::MIN);
    }

    #[test]
    fn check_hash_depends_on_salt() {
        assert_ne!(check_hash(1, 99), check_hash(2, 99));
    }
}
