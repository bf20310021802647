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

use crate::cpu::Cpu;
use crate::sha256::{sha256d_64, sha256d_pairs, Digest, SHA_LANES};

/// Compute the Merkle root of a list of txids.
///
/// Returns [`Digest::ZERO`] for an empty list (a real block always has at
/// least the coinbase transaction, so this case is a sentinel only).
pub fn merkle_root(txids: &[Digest]) -> Digest {
    root_on(Cpu::detect(), txids, |_| {})
}

/// The receiver's check of a block against its header: `txids` hash to
/// `root`, and no level of the tree holds two equal siblings.
///
/// Duplicating the last node of an odd level lets a second list share a
/// root: `[a, b, c, d, e, f, e, f]` hashes like `[a, b, c, d, e, f]`
/// (Bitcoin's CVE-2012-2459). The longer list always has two equal real
/// siblings on some level, which an honest block — distinct txids under a
/// collision-free hash — never has, so this refuses it, as Bitcoin Core's
/// `mutated` flag does.
pub fn verify_merkle_root(txids: &[Digest], root: &Digest) -> bool {
    let mut mutated = false;
    let computed = root_on(Cpu::detect(), txids, |level| {
        mutated |= level.chunks_exact(2).any(|pair| pair[0] == pair[1]);
    });
    !mutated && computed == *root
}

/// The root of `txids` on `kernels`, showing `visit` every level of two
/// or more nodes before it is reduced. Level 0 is reduced from `txids`
/// into the one buffer, every later level in place.
fn root_on(kernels: Cpu, txids: &[Digest], mut visit: impl FnMut(&[Digest])) -> Digest {
    if txids.len() < 2 {
        return txids.first().copied().unwrap_or(Digest::ZERO);
    }
    visit(txids);
    let mut level = kernels.parent_level(txids);
    while level.len() > 1 {
        visit(&level);
        kernels.next_level(&mut level);
    }
    level[0]
}

/// Fewest live pairs worth a [`SHA_LANES`]-wide [`sha256d_64`] pass, on a
/// host without the SHA extensions. One wide pass of that
/// compiler-vectorized kernel cost 2.4 one-lane pair hashes whatever its
/// occupancy when built for AVX-512, so two pairs are cheaper one at a
/// time. (The break-even is 4 pairs on AVX2 and 7 on SSE2; only the top
/// two or three levels of a tree are that small.)
const MIN_BATCH: usize = 3;

/// The pair kernels a tree is hashed on, detected once per tree: AVX-512
/// for every full chunk of [`SHA_LANES`] pairs where the host has it, and
/// for the rest of a level one block per call on the SHA extensions where
/// it has those, else [`sha256d_64`].
impl Cpu {
    /// Parents `start..start + live` of `level` at the front of the result,
    /// `live` = `min(SHA_LANES, parents − start)`.
    ///
    /// A full chunk — all `2·SHA_LANES` children present — goes through the
    /// AVX-512 kernel where there is one. Otherwise the SHA extensions take
    /// the live pairs one block per call (`sha256d_pairs`), or
    /// [`sha256d_64`] every pair of the chunk in one pass (one pair at a
    /// time below `MIN_BATCH`).
    fn parents(self, level: &[Digest], start: usize) -> [Digest; SHA_LANES] {
        if let (Some(wide), Some(chunk)) =
            (self.avx512, level.get(2 * start..2 * (start + SHA_LANES)))
        {
            return wide.sha256d_chunk(chunk.try_into().expect("a full chunk"));
        }
        let live = SHA_LANES.min(level.len().div_ceil(2) - start);
        // Ragged tail: spare lanes repeat the last live pair and their
        // outputs are dropped.
        let pairs = core::array::from_fn(|l| children(level, start + l.min(live - 1)));
        if self.sha.is_some() || live < MIN_BATCH {
            sha256d_pairs(self.sha, &pairs[..live])
        } else {
            sha256d_64::<SHA_LANES>(pairs)
        }
    }

    /// The parent level of `level`, two or more nodes, in a new buffer.
    fn parent_level(self, level: &[Digest]) -> Vec<Digest> {
        let parents = level.len().div_ceil(2);
        let mut next = Vec::with_capacity(parents);
        for start in (0..parents).step_by(SHA_LANES) {
            next.extend_from_slice(&self.parents(level, start)[..SHA_LANES.min(parents - start)]);
        }
        next
    }

    /// Replace `level`, two or more nodes, by its parent level in place.
    /// Parent `i` is written at index `i` only after children `2i` and
    /// `2i + 1` were read, so the reduction needs no second buffer.
    fn next_level(self, level: &mut Vec<Digest>) {
        let parents = level.len().div_ceil(2);
        for start in (0..parents).step_by(SHA_LANES) {
            let live = SHA_LANES.min(parents - start);
            let out = self.parents(level, start);
            level[start..start + live].copy_from_slice(&out[..live]);
        }
        level.truncate(parents);
    }
}

/// Replace a level of two or more nodes by its parent level, in place, on
/// the kernels the host has (see [`Cpu`]).
pub fn next_level(level: &mut Vec<Digest>) {
    Cpu::detect().next_level(level);
}

/// The two children of node `parent` of the next level. An odd level's last
/// node is its own sibling: Bitcoin duplicates the last hash.
fn children(level: &[Digest], parent: usize) -> (&Digest, &Digest) {
    (&level[2 * parent], level.get(2 * parent + 1).unwrap_or(&level[2 * parent]))
}

fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    sha256d_pairs::<1>(Cpu::detect().sha, &[(left, right)])[0]
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
        Self::on(Cpu::detect(), txids)
    }

    /// [`MerkleTree::new`] on `kernels`.
    fn on(kernels: Cpu, txids: &[Digest]) -> Self {
        let mut levels = vec![txids.to_vec()];
        while let Some(top) = levels.last().filter(|level| level.len() > 1) {
            levels.push(kernels.parent_level(top));
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

    /// Every set of pair kernels this host can run, the lane kernel alone
    /// first, after saying which halves of `test` it cannot run.
    fn every_kernel_set(test: &str) -> Vec<Cpu> {
        let Cpu { sha, avx512 } = Cpu::detect();
        if avx512.is_none() {
            eprintln!("{test}: no AVX-512 F/DQ/BW on this host, AVX-512 half skipped");
        }
        if sha.is_none() {
            eprintln!("{test}: no SHA extensions on this host, SHA-NI half skipped");
        }
        let mut sets = Vec::new();
        for avx512 in [None].into_iter().chain(avx512.map(Some)) {
            for sha in [None].into_iter().chain(sha.map(Some)) {
                sets.push(Cpu { sha, avx512 });
            }
        }
        sets
    }

    #[test]
    fn every_kernel_gives_the_golden_roots() {
        // `merkle_root` takes only the host's best kernels, so each set is
        // called by name: full chunks on AVX-512 or not, the rest on the
        // SHA extensions or not. Sizes cover every ragged tail, the levels
        // too small for a full chunk, and 2^k ± 1, where the last node of
        // every level is its own sibling.
        let sets = every_kernel_set("every_kernel_gives_the_golden_roots");
        let powers = (1..=12).flat_map(|k| [(1usize << k) - 1, (1 << k) + 1]);
        for n in (1..=130).chain(powers).chain([2000]) {
            let l = leaves(n);
            let lanes = MerkleTree::on(sets[0], &l);
            if let Some((_, golden)) = GOLDEN_ROOTS.iter().find(|(m, _)| *m == n) {
                assert_eq!(lanes.root().to_hex(), *golden, "n = {n}");
            }
            for &kernels in &sets {
                assert_eq!(root_on(kernels, &l, |_| {}), lanes.root(), "{kernels:?}, n = {n}");
                assert!(MerkleTree::on(kernels, &l).levels == lanes.levels, "{kernels:?}, n = {n}");
            }
        }
    }

    #[test]
    fn a_duplicated_tail_is_refused() {
        // CVE-2012-2459: repeating the last two of six leaves gives the
        // same root, and equal siblings on level 1 give it away.
        let l = leaves(6);
        let forged = [&l[..], &l[4..]].concat();
        assert_eq!(merkle_root(&forged), merkle_root(&l));
        assert!(verify_merkle_root(&l, &merkle_root(&l)));
        assert!(!verify_merkle_root(&forged, &merkle_root(&l)));
        // The same on level 0, and one level up from an odd level.
        let l = leaves(3);
        let forged = [&l[..], &l[2..]].concat();
        assert_eq!(merkle_root(&forged), merkle_root(&l));
        assert!(!verify_merkle_root(&forged, &merkle_root(&l)));
        let l = leaves(5);
        let forged = [&l[..], &l[4..], &l[4..], &l[4..]].concat();
        assert_eq!(merkle_root(&forged), merkle_root(&l));
        assert!(!verify_merkle_root(&forged, &merkle_root(&l)));
    }

    #[test]
    fn honest_trees_verify() {
        for n in (0..=70).chain([2000, 2001]) {
            let l = leaves(n);
            assert!(verify_merkle_root(&l, &merkle_root(&l)), "n = {n}");
            assert!(!verify_merkle_root(&l, &sha256(b"not the root")), "n = {n}");
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
