//! Bitcoin-style Merkle trees over transaction IDs.
//!
//! A Graphene receiver reconstructs the candidate transaction set, orders it
//! (CTOR or explicit ordering), computes the Merkle root, and compares it to
//! the root committed in the block header (paper §3.1 step 4 and §6.2). The
//! root is the final arbiter: probabilistic reconciliation may produce a
//! superset or miss transactions, and only an exact set/order match verifies.
//!
//! The construction follows Bitcoin: leaves are (double-SHA256) txids, each
//! internal node is `sha256d(left || right)`, and a level with an odd number
//! of nodes duplicates its last node.

use crate::sha256::{sha256d_64, sha256d_pairs, Digest, ShaNi, SHA_LANES};

/// Compute the Merkle root of a list of txids.
///
/// Returns [`Digest::ZERO`] for an empty list (a real block always has at
/// least the coinbase transaction, so this case is a sentinel only).
pub fn merkle_root(txids: &[Digest]) -> Digest {
    root_by(txids, next_level)
}

/// [`merkle_root`] with `next` reducing each level.
fn root_by(txids: &[Digest], mut next: impl FnMut(&mut Vec<Digest>)) -> Digest {
    if txids.is_empty() {
        return Digest::ZERO;
    }
    // The one allocation: every level is reduced in this buffer.
    let mut level = txids.to_vec();
    while level.len() > 1 {
        next(&mut level);
    }
    level[0]
}

/// Fewest live pairs worth a [`SHA_LANES`]-wide pass. Measured on the
/// AVX-512 host the lane count was picked on, one wide pass costs 2.4
/// one-lane pair hashes whatever its occupancy, so two pairs are cheaper
/// one at a time. (The break-even is 4 pairs on AVX2 and 7 on SSE2; only
/// the top two or three levels of a tree are that small.)
const MIN_BATCH: usize = 3;

/// Replace a level of two or more nodes by its parent level, in place.
///
/// The nodes of a level are independent and identically shaped, so they go
/// through a pair kernel in chunks of [`SHA_LANES`] pairs: on a host with
/// the SHA extensions `sha256d_pairs`, one block per call on them;
/// elsewhere [`sha256d_64`], every pair of the chunk in each pass (one pair
/// at a time below `MIN_BATCH`). Parent `i` is written at index `i` only
/// after children `2i` and `2i + 1` were read, so the reduction needs no
/// second buffer.
pub fn next_level(level: &mut Vec<Digest>) {
    next_level_on(level, ShaNi::detect());
}

/// [`next_level`] on the SHA extensions if `ni`, else on the lane kernel.
fn next_level_on(level: &mut Vec<Digest>, ni: Option<ShaNi>) {
    let parents = level.len().div_ceil(2);
    for start in (0..parents).step_by(SHA_LANES) {
        let live = SHA_LANES.min(parents - start);
        // Ragged tail: spare lanes repeat the last live pair and their
        // outputs are dropped.
        let pairs = core::array::from_fn(|l| children(level, start + l.min(live - 1)));
        let out = if ni.is_some() || live < MIN_BATCH {
            sha256d_pairs(ni, &pairs[..live])
        } else {
            sha256d_64::<SHA_LANES>(pairs)
        };
        level[start..start + live].copy_from_slice(&out[..live]);
    }
    level.truncate(parents);
}

/// The two children of node `parent` of the next level. An odd level's last
/// node is its own sibling: Bitcoin duplicates the last hash.
fn children(level: &[Digest], parent: usize) -> (&Digest, &Digest) {
    (&level[2 * parent], level.get(2 * parent + 1).unwrap_or(&level[2 * parent]))
}

fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    sha256d_pairs::<1>(ShaNi::detect(), &[(left, right)])[0]
}

/// A full Merkle tree retaining every level, supporting inclusion proofs.
///
/// The experiment harness uses proofs to sanity-check partial decodings; a
/// production relay only needs [`merkle_root`].
pub struct MerkleTree {
    /// `levels[0]` is the leaf level; the last level has exactly one node,
    /// or none in the empty tree (whose only level is its empty leaf level).
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof: sibling hashes from leaf to root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling hash at each level, leaf-side first.
    pub siblings: Vec<Digest>,
}

impl MerkleTree {
    /// Build the tree from leaf txids. Empty input yields a tree with no
    /// leaves and the [`Digest::ZERO`] root of [`merkle_root`].
    pub fn new(txids: &[Digest]) -> Self {
        let mut levels = vec![txids.to_vec()];
        while levels.last().expect("non-empty").len() > 1 {
            let mut next = levels.last().expect("non-empty").clone();
            next_level(&mut next);
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root hash ([`Digest::ZERO`] for the empty tree).
    pub fn root(&self) -> Digest {
        let top = self.levels.last().expect("at least one level");
        top.first().copied().unwrap_or(Digest::ZERO)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True if the tree was built from an empty list.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce an inclusion proof for leaf `index`, or `None` if out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.levels.len() - 1);
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            // Odd level: the last node is its own sibling.
            let sibling = *level.get(sibling_idx).unwrap_or(&level[idx]);
            siblings.push(sibling);
            idx /= 2;
        }
        Some(MerkleProof { index, siblings })
    }
}

impl MerkleProof {
    /// Verify that `leaf` is included under `root`.
    pub fn verify(&self, leaf: &Digest, root: &Digest) -> bool {
        let mut hash = *leaf;
        let mut idx = self.index;
        for sibling in &self.siblings {
            hash = if idx.is_multiple_of(2) {
                hash_pair(&hash, sibling)
            } else {
                hash_pair(sibling, &hash)
            };
            idx /= 2;
        }
        hash == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| sha256(&(i as u64).to_le_bytes())).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), l[0]);
    }

    #[test]
    fn empty_root_is_zero() {
        assert_eq!(merkle_root(&[]), Digest::ZERO);
        assert!(MerkleTree::new(&[]).is_empty());
    }

    #[test]
    fn two_leaves_hash_pair() {
        let l = leaves(2);
        assert_eq!(merkle_root(&l), hash_pair(&l[0], &l[1]));
    }

    #[test]
    fn odd_level_duplicates_last() {
        let l = leaves(3);
        let left = hash_pair(&l[0], &l[1]);
        let right = hash_pair(&l[2], &l[2]);
        assert_eq!(merkle_root(&l), hash_pair(&left, &right));
    }

    #[test]
    fn tree_matches_root_function() {
        for n in 1..35 {
            let l = leaves(n);
            assert_eq!(MerkleTree::new(&l).root(), merkle_root(&l), "n = {n}");
        }
    }

    /// Roots of `leaves(n)` as computed by the pairwise scalar fold this
    /// module used before the lane kernel (generated at commit 6dcf8b0).
    const GOLDEN_ROOTS: [(usize, &str); 7] = [
        (1, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
        (2, "bdcbb89e3c7e9ee6ff0dc334acc3030d29b169ab4a8f6f649e3e8bc627126255"),
        (3, "932f5edfc17d297ca692850942bccf765c8fb9c15b55863d9827eb48b68f0066"),
        (7, "3b002e7cb010aa244c7daa12f013f8c62b03d53f434e2c17da770f590236cf46"),
        (16, "0113118b6b4eb2cc473e3b85bf4e93d4d1cd9066146854356ee66d1453a6d7b1"),
        (17, "c5bf103ab08b9692f18c60fdd9605d355a32fbc48cf65dd0a698aa62e8ad5dd6"),
        (2000, "8991c23355262a2c7d1f29fc539250515d2bf2722283dd636efdf4979b985f58"),
    ];

    #[test]
    fn golden_roots() {
        for (n, root) in GOLDEN_ROOTS {
            let l = leaves(n);
            assert_eq!(merkle_root(&l).to_hex(), root, "n = {n}");
            assert_eq!(MerkleTree::new(&l).root().to_hex(), root, "tree, n = {n}");
        }
    }

    #[test]
    fn every_kernel_gives_the_golden_roots() {
        // On a host with the SHA extensions `merkle_root` never reaches the
        // lane kernel, so both paths are called by name.
        let ni = ShaNi::detect();
        if ni.is_none() {
            eprintln!(
                "every_kernel_gives_the_golden_roots: no SHA extensions, SHA-NI path skipped"
            );
        }
        for n in (1..=130).chain([2000]) {
            let l = leaves(n);
            let root = root_by(&l, |lv| next_level_on(lv, None));
            if ni.is_some() {
                assert_eq!(root_by(&l, |lv| next_level_on(lv, ni)), root, "ni, n = {n}");
            }
            if let Some((_, golden)) = GOLDEN_ROOTS.iter().find(|(m, _)| *m == n) {
                assert_eq!(root.to_hex(), *golden, "n = {n}");
            }
        }
    }

    #[test]
    fn empty_tree_holds_no_leaf() {
        let tree = MerkleTree::new(&[]);
        assert_eq!((tree.len(), tree.is_empty(), tree.root()), (0, true, Digest::ZERO));
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn a_zero_leaf_is_a_leaf() {
        let tree = MerkleTree::new(&[Digest::ZERO]);
        assert_eq!((tree.len(), tree.is_empty(), tree.root()), (1, false, Digest::ZERO));
        assert!(tree.prove(0).expect("in range").verify(&Digest::ZERO, &tree.root()));
    }

    #[test]
    fn proofs_verify_for_all_leaves() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 16, 17, 33, 2000] {
            let l = leaves(n);
            let tree = MerkleTree::new(&l);
            let root = tree.root();
            for (i, leaf) in l.iter().enumerate() {
                let proof = tree.prove(i).expect("in range");
                assert!(proof.verify(leaf, &root), "n = {n}, leaf {i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf_or_root() {
        for n in [2usize, 3, 7, 8, 16, 17, 2000] {
            let l = leaves(n);
            let tree = MerkleTree::new(&l);
            let proof = tree.prove(n / 2).expect("in range");
            assert!(!proof.verify(&l[n / 2 - 1], &tree.root()), "n = {n}");
            assert!(!proof.verify(&l[n / 2], &sha256(b"not the root")), "n = {n}");
        }
        // A single leaf is its own root: only the root can be wrong.
        let l = leaves(1);
        let proof = MerkleTree::new(&l).prove(0).expect("in range");
        assert!(!proof.verify(&l[0], &sha256(b"not the root")));
    }

    #[test]
    fn prove_out_of_range_is_none() {
        let tree = MerkleTree::new(&leaves(4));
        assert!(tree.prove(4).is_none());
    }

    #[test]
    fn order_sensitivity() {
        // The root commits to order: swapping two txids changes it.
        let mut l = leaves(6);
        let before = merkle_root(&l);
        l.swap(0, 5);
        assert_ne!(merkle_root(&l), before);
    }
}
