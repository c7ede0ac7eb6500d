//! Append-only Merkle trees with inclusion and consistency proofs.
//!
//! This is the authenticated data structure behind Research Challenge 4
//! ("enable any participant to verify the integrity of stored data"):
//! `prever-ledger` hashes every journal entry into one of these trees, and
//! auditors verify (a) that an entry is present under a published digest
//! (inclusion) and (b) that a later digest extends an earlier one without
//! rewriting history (consistency).
//!
//! The construction follows RFC 6962 (Certificate Transparency): leaves are
//! hashed with a `0x00` prefix and interior nodes with a `0x01` prefix
//! (domain separation prevents second-preimage splicing), and trees of
//! non-power-of-two size are split at the largest power of two strictly
//! less than the size.
//!
//! Appends never change a *complete* subtree (`2^h` leaves starting at a
//! multiple of `2^h`), so [`MerkleTree`] hashes each one once and keeps
//! its root: a root or proof at any size `k ≤ len` is lookups plus the
//! `O(log k)` hashes that join the ragged right edge of the size-`k` tree.

use crate::sha256::{sha256_concat, Digest};
use crate::{CryptoError, Result};
use std::cell::RefCell;

/// Hashes a leaf value with domain separation.
pub fn leaf_hash(data: &[u8]) -> Digest {
    sha256_concat(&[&[0x00], data])
}

/// Hashes two child digests into their parent.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[&[0x01], left.as_bytes(), right.as_bytes()])
}

/// An append-only Merkle tree over byte-string leaves.
///
/// Stores every leaf hash (32 B per leaf) and, from the first root or
/// proof on, the root of every complete subtree (`n − 1` digests for `n`
/// leaves: 64 B per leaf). `append` is one leaf hash and touches no
/// interior node. The first root or proof after `a` appends hashes the
/// ~`a` subtrees they completed; after that `root` / `root_at(k)` cost
/// under `log2 k` node hashes and `prove_inclusion(i, k)` /
/// `prove_consistency(m, k)` under `2·log2 k`, for any `k ≤ len`. The
/// cache fills behind `&self`, so the tree is `Send` but not `Sync`.
#[derive(Clone, Debug, Default)]
pub struct MerkleTree {
    leaves: Vec<Digest>,
    /// `interior[h - 1][i]` is the root over leaves `[i·2^h, (i+1)·2^h)`;
    /// [`Self::fill`] extends every level to cover all current leaves.
    interior: RefCell<Vec<Vec<Digest>>>,
}

impl MerkleTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a leaf; returns its index.
    pub fn append(&mut self, data: &[u8]) -> usize {
        self.append_leaf_hash(leaf_hash(data))
    }

    /// Appends a precomputed leaf hash; returns its index.
    pub fn append_leaf_hash(&mut self, hash: Digest) -> usize {
        self.leaves.push(hash);
        self.leaves.len() - 1
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True iff the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The root digest over all leaves (SHA-256 of empty string for an
    /// empty tree, per RFC 6962).
    pub fn root(&self) -> Digest {
        self.fill();
        self.root_of_range(0, self.leaves.len())
    }

    /// The root the tree had when it contained only the first `n` leaves.
    pub fn root_at(&self, n: usize) -> Result<Digest> {
        if n > self.leaves.len() {
            return Err(CryptoError::OutOfRange("root_at beyond tree size"));
        }
        self.fill();
        Ok(self.root_of_range(0, n))
    }

    /// Hashes, level by level, the complete subtrees that the appends
    /// since the last call completed.
    fn fill(&self) {
        let mut levels = self.interior.borrow_mut();
        for h in 0.. {
            let want = self.leaves.len() >> (h + 1);
            if want == 0 {
                break;
            }
            if levels.len() == h {
                levels.push(Vec::new());
            }
            let (below, level) = levels.split_at_mut(h);
            let (below, level) = (below.last().unwrap_or(&self.leaves), &mut level[0]);
            level.reserve(want - level.len());
            for i in level.len()..want {
                level.push(node_hash(&below[2 * i], &below[2 * i + 1]));
            }
        }
    }

    /// RFC 6962 `MTH` over leaves `lo..hi`, after [`Self::fill`]: a lookup
    /// for a complete subtree, else the split, whose left half is complete.
    fn root_of_range(&self, lo: usize, hi: usize) -> Digest {
        match hi - lo {
            0 => crate::sha256::sha256(b""),
            1 => self.leaves[lo],
            n if n.is_power_of_two() && lo.is_multiple_of(n) => {
                self.interior.borrow()[n.trailing_zeros() as usize - 1][lo / n]
            }
            n => {
                let k = largest_power_of_two_below(n);
                let left = self.root_of_range(lo, lo + k);
                let right = self.root_of_range(lo + k, hi);
                node_hash(&left, &right)
            }
        }
    }

    /// Produces an inclusion proof for leaf `index` in the tree of the
    /// first `tree_size` leaves.
    pub fn prove_inclusion(&self, index: usize, tree_size: usize) -> Result<InclusionProof> {
        if tree_size > self.leaves.len() {
            return Err(CryptoError::OutOfRange("tree_size beyond tree"));
        }
        if index >= tree_size {
            return Err(CryptoError::OutOfRange("leaf index beyond tree_size"));
        }
        self.fill();
        let mut path = Vec::new();
        self.inclusion_path(index, 0, tree_size, &mut path);
        Ok(InclusionProof { leaf_index: index, tree_size, path })
    }

    fn inclusion_path(&self, index: usize, lo: usize, hi: usize, out: &mut Vec<Digest>) {
        let n = hi - lo;
        if n == 1 {
            return;
        }
        let k = largest_power_of_two_below(n);
        if index < lo + k {
            self.inclusion_path(index, lo, lo + k, out);
            out.push(self.root_of_range(lo + k, hi));
        } else {
            self.inclusion_path(index, lo + k, hi, out);
            out.push(self.root_of_range(lo, lo + k));
        }
    }

    /// Produces a consistency proof showing the tree of size `new_size`
    /// extends the tree of size `old_size`.
    pub fn prove_consistency(&self, old_size: usize, new_size: usize) -> Result<ConsistencyProof> {
        if new_size > self.leaves.len() || old_size > new_size {
            return Err(CryptoError::OutOfRange("invalid consistency sizes"));
        }
        let mut path = Vec::new();
        if old_size > 0 && old_size < new_size {
            self.fill();
            self.consistency_path(old_size, 0, new_size, true, &mut path);
        }
        Ok(ConsistencyProof { old_size, new_size, path })
    }

    /// RFC 6962 SUBPROOF. `complete` tracks whether the old tree occupies a
    /// complete subtree of the current range.
    fn consistency_path(
        &self,
        m: usize,
        lo: usize,
        hi: usize,
        complete: bool,
        out: &mut Vec<Digest>,
    ) {
        let n = hi - lo;
        if m == n {
            if !complete {
                out.push(self.root_of_range(lo, hi));
            }
            return;
        }
        let k = largest_power_of_two_below(n);
        if m <= k {
            self.consistency_path(m, lo, lo + k, complete, out);
            out.push(self.root_of_range(lo + k, hi));
        } else {
            self.consistency_path(m - k, lo + k, hi, false, out);
            out.push(self.root_of_range(lo, lo + k));
        }
    }
}

/// Proof that a leaf is included under a root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InclusionProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Size of the tree the proof was generated against.
    pub tree_size: usize,
    /// Sibling digests from leaf to root.
    pub path: Vec<Digest>,
}

impl InclusionProof {
    /// Verifies the proof: does `leaf_data` at `leaf_index` hash up to
    /// `root` in a tree of `tree_size` leaves?
    pub fn verify(&self, leaf_data: &[u8], root: &Digest) -> Result<()> {
        self.verify_leaf_hash(leaf_hash(leaf_data), root)
    }

    /// Verifies against a precomputed leaf hash.
    pub fn verify_leaf_hash(&self, leaf: Digest, root: &Digest) -> Result<()> {
        if self.leaf_index >= self.tree_size {
            return Err(CryptoError::Malformed("leaf_index >= tree_size"));
        }
        let computed = self.compute_root(leaf)?;
        if &computed == root {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed("inclusion proof"))
        }
    }

    fn compute_root(&self, leaf: Digest) -> Result<Digest> {
        // Walk back up, reconstructing the split decisions.
        let mut splits = Vec::with_capacity(self.path.len());
        let mut lo = 0usize;
        let mut hi = self.tree_size;
        while hi - lo > 1 {
            let k = largest_power_of_two_below(hi - lo);
            if self.leaf_index < lo + k {
                splits.push(true); // we are the left child
                hi = lo + k;
            } else {
                splits.push(false);
                lo += k;
            }
        }
        if splits.len() != self.path.len() {
            return Err(CryptoError::Malformed("inclusion path length"));
        }
        let mut acc = leaf;
        for (is_left, sibling) in splits.iter().rev().zip(self.path.iter()) {
            acc = if *is_left {
                node_hash(&acc, sibling)
            } else {
                node_hash(sibling, &acc)
            };
        }
        Ok(acc)
    }
}

/// Proof that one tree is a prefix of a larger tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsistencyProof {
    /// Size of the earlier tree.
    pub old_size: usize,
    /// Size of the later tree.
    pub new_size: usize,
    /// Node digests per RFC 6962 §2.1.2.
    pub path: Vec<Digest>,
}

impl ConsistencyProof {
    /// Verifies that `new_root` (over `new_size` leaves) is an append-only
    /// extension of `old_root` (over `old_size` leaves).
    pub fn verify(&self, old_root: &Digest, new_root: &Digest) -> Result<()> {
        if self.old_size == self.new_size {
            if !self.path.is_empty() {
                return Err(CryptoError::Malformed("nonempty path for equal sizes"));
            }
            return if old_root == new_root {
                Ok(())
            } else {
                Err(CryptoError::VerificationFailed("consistency: equal-size roots differ"))
            };
        }
        if self.old_size == 0 {
            // Any tree extends the empty tree.
            return Ok(());
        }
        if self.old_size > self.new_size {
            return Err(CryptoError::Malformed("old_size > new_size"));
        }

        // RFC 6962 verification algorithm.
        let mut node = self.old_size - 1;
        let mut last_node = self.new_size - 1;
        while node % 2 == 1 {
            node /= 2;
            last_node /= 2;
        }
        let mut path = self.path.iter();
        let (mut old_hash, mut new_hash) = if node > 0 {
            let first = *path.next().ok_or(CryptoError::Malformed("empty consistency path"))?;
            (first, first)
        } else {
            (*old_root, *old_root)
        };
        while node > 0 || last_node > 0 {
            if node % 2 == 1 {
                let p = *path.next().ok_or(CryptoError::Malformed("short consistency path"))?;
                old_hash = node_hash(&p, &old_hash);
                new_hash = node_hash(&p, &new_hash);
            } else if node < last_node {
                let p = *path.next().ok_or(CryptoError::Malformed("short consistency path"))?;
                new_hash = node_hash(&new_hash, &p);
            }
            node /= 2;
            last_node /= 2;
        }
        if path.next().is_some() {
            return Err(CryptoError::Malformed("long consistency path"));
        }
        if &old_hash != old_root {
            return Err(CryptoError::VerificationFailed("consistency: old root"));
        }
        if &new_hash != new_root {
            return Err(CryptoError::VerificationFailed("consistency: new root"));
        }
        Ok(())
    }
}

/// Largest power of two strictly less than `n` (n ≥ 2).
fn largest_power_of_two_below(n: usize) -> usize {
    debug_assert!(n >= 2);
    1 << (n - 1).ilog2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prever_obs::work::{measure, Unit};
    use proptest::prelude::*;

    fn tree_of(n: usize) -> MerkleTree {
        let mut t = MerkleTree::new();
        for i in 0..n {
            t.append(format!("leaf-{i}").as_bytes());
        }
        t
    }

    /// The tree as it was before it cached anything: every root and proof
    /// recomputed from the leaf hashes. The oracle for the cached tree.
    mod reference {
        use super::super::{largest_power_of_two_below, node_hash, Digest};

        pub fn root(leaves: &[Digest]) -> Digest {
            match leaves.len() {
                0 => crate::sha256::sha256(b""),
                1 => leaves[0],
                n => {
                    let (left, right) = leaves.split_at(largest_power_of_two_below(n));
                    node_hash(&root(left), &root(right))
                }
            }
        }

        pub fn inclusion_path(leaves: &[Digest], index: usize, out: &mut Vec<Digest>) {
            if leaves.len() == 1 {
                return;
            }
            let k = largest_power_of_two_below(leaves.len());
            let (left, right) = leaves.split_at(k);
            if index < k {
                inclusion_path(left, index, out);
                out.push(root(right));
            } else {
                inclusion_path(right, index - k, out);
                out.push(root(left));
            }
        }

        pub fn consistency_path(leaves: &[Digest], m: usize, complete: bool, out: &mut Vec<Digest>) {
            if m == leaves.len() {
                if !complete {
                    out.push(root(leaves));
                }
                return;
            }
            let k = largest_power_of_two_below(leaves.len());
            let (left, right) = leaves.split_at(k);
            if m <= k {
                consistency_path(left, m, complete, out);
                out.push(root(right));
            } else {
                consistency_path(right, m - k, false, out);
                out.push(root(left));
            }
        }
    }

    #[test]
    fn empty_tree_root_is_hash_of_empty() {
        assert_eq!(MerkleTree::new().root(), crate::sha256::sha256(b""));
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let mut t = MerkleTree::new();
        t.append(b"x");
        assert_eq!(t.root(), leaf_hash(b"x"));
    }

    /// RFC 6962 test vectors for the CT hash of small trees.
    #[test]
    fn rfc6962_roots() {
        let inputs: [&[u8]; 7] = [
            b"",
            &[0x00],
            &[0x10],
            &[0x20, 0x21],
            &[0x30, 0x31],
            &[0x40, 0x41, 0x42, 0x43],
            &[0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57],
        ];
        let mut t = MerkleTree::new();
        for i in &inputs {
            t.append(i);
        }
        assert_eq!(
            t.root().to_hex(),
            "ddb89be403809e325750d3d263cd78929c2942b7942a34b77e122c9594a74c8c"
        );
        assert_eq!(
            t.root_at(3).unwrap().to_hex(),
            "aeb6bcfe274b70a14fb067a5e5578264db0fa9b51af5e0ba159158f329e06e77"
        );
    }

    #[test]
    fn inclusion_all_sizes() {
        for n in 1..=33usize {
            let t = tree_of(n);
            let root = t.root();
            for i in 0..n {
                let proof = t.prove_inclusion(i, n).unwrap();
                proof
                    .verify(format!("leaf-{i}").as_bytes(), &root)
                    .unwrap_or_else(|e| panic!("n={n} i={i}: {e}"));
            }
        }
    }

    #[test]
    fn inclusion_rejects_wrong_leaf() {
        let t = tree_of(10);
        let proof = t.prove_inclusion(3, 10).unwrap();
        assert!(proof.verify(b"not-the-leaf", &t.root()).is_err());
    }

    #[test]
    fn inclusion_rejects_wrong_root() {
        let t = tree_of(10);
        let proof = t.prove_inclusion(3, 10).unwrap();
        let wrong = crate::sha256::sha256(b"wrong");
        assert!(proof.verify(b"leaf-3", &wrong).is_err());
    }

    #[test]
    fn inclusion_rejects_tampered_path() {
        let t = tree_of(16);
        let mut proof = t.prove_inclusion(5, 16).unwrap();
        proof.path[0] = crate::sha256::sha256(b"evil");
        assert!(proof.verify(b"leaf-5", &t.root()).is_err());
    }

    #[test]
    fn inclusion_out_of_range() {
        let t = tree_of(4);
        assert!(t.prove_inclusion(4, 4).is_err());
        assert!(t.prove_inclusion(0, 5).is_err());
    }

    #[test]
    fn consistency_all_size_pairs() {
        let t = tree_of(20);
        for old in 0..=20usize {
            for new in old..=20usize {
                let proof = t.prove_consistency(old, new).unwrap();
                let old_root = t.root_at(old).unwrap();
                let new_root = t.root_at(new).unwrap();
                proof
                    .verify(&old_root, &new_root)
                    .unwrap_or_else(|e| panic!("old={old} new={new}: {e}"));
            }
        }
    }

    #[test]
    fn consistency_detects_rewrite() {
        // Build two trees that agree on size but differ in an early leaf.
        let honest = tree_of(8);
        let mut tampered = MerkleTree::new();
        for i in 0..8 {
            if i == 2 {
                tampered.append(b"REWRITTEN");
            } else {
                tampered.append(format!("leaf-{i}").as_bytes());
            }
        }
        let proof = tampered.prove_consistency(4, 8).unwrap();
        // Old root from the honest tree: the tampered extension must fail.
        let old_root = honest.root_at(4).unwrap();
        let new_root = tampered.root();
        assert!(proof.verify(&old_root, &new_root).is_err());
    }

    #[test]
    fn append_changes_root() {
        let mut t = tree_of(5);
        let r1 = t.root();
        t.append(b"another");
        assert_ne!(t.root(), r1);
        assert_eq!(t.root_at(5).unwrap(), r1);
    }

    /// Counted, not timed: what a digest or proof costs does not depend
    /// on how many leaves lie under complete subtrees. A node hash is two
    /// SHA-256 compressions (65 bytes), and nothing else in the measured
    /// regions hashes.
    #[test]
    fn digest_and_proofs_hash_log_n_nodes_and_each_interior_node_once() {
        const N: usize = 50_000;
        let log2_n = 16; // 2^16 > N
        let trio = |t: &MerkleTree| {
            let n = t.len();
            let ((), work) = measure(|| {
                t.root();
                t.prove_inclusion(n / 3, n).unwrap();
                t.prove_consistency(n / 2, n).unwrap();
            });
            work[Unit::Sha256Compress] / 2
        };

        // N appends with a digest after every tenth.
        let mut t = MerkleTree::new();
        let (mut hashed, mut joins) = (0, 0);
        let mut trio_at_5k = 0;
        while t.len() < N {
            t.append(&t.len().to_be_bytes());
            let n = t.len();
            if n.is_multiple_of(10) {
                let by_digest = measure(|| t.root()).1[Unit::Sha256Compress] / 2;
                // The subtrees ten appends completed, then the ragged edge
                // (checked per digest so that a lost cache fails at once).
                assert!(by_digest <= 10 + 2 * log2_n, "{by_digest} node hashes for a digest at {n}");
                hashed += by_digest;
                joins += u64::from(n.count_ones()) - 1;
            }
            if n == N / 10 {
                trio_at_5k = trio(&t);
            }
        }
        // A tree of n leaves has n − popcount(n) complete interior nodes.
        let interior = (N - N.count_ones() as usize) as u64;
        assert_eq!(hashed, interior + joins, "each interior node once, plus the edge per digest");

        let at_50k = trio(&t);
        assert!(at_50k <= 4 * log2_n, "{at_50k} node hashes for the trio at {N}");
        assert!(at_50k <= trio_at_5k + 2 * log2_n, "{at_50k} at {N}, {trio_at_5k} at {}", N / 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_inclusion_roundtrip(n in 1usize..64, seed in any::<u64>()) {
            let i = (seed as usize) % n;
            let t = tree_of(n);
            let proof = t.prove_inclusion(i, n).unwrap();
            let leaf = format!("leaf-{i}");
            prop_assert!(proof.verify(leaf.as_bytes(), &t.root()).is_ok());
        }

        #[test]
        fn prop_consistency_roundtrip(n in 1usize..64, frac in 0.0f64..1.0) {
            let old = ((n as f64) * frac) as usize;
            let t = tree_of(n);
            let proof = t.prove_consistency(old, n).unwrap();
            prop_assert!(proof
                .verify(&t.root_at(old).unwrap(), &t.root())
                .is_ok());
        }

        #[test]
        fn prop_distinct_leaves_distinct_roots(a in "[a-z]{1,8}", b in "[a-z]{1,8}") {
            prop_assume!(a != b);
            let mut t1 = MerkleTree::new();
            t1.append(a.as_bytes());
            let mut t2 = MerkleTree::new();
            t2.append(b.as_bytes());
            prop_assert_ne!(t1.root(), t2.root());
        }

        /// Any interleaving of appends, roots and proofs, at past sizes
        /// as well as the current one: the cached tree answers bit for
        /// bit what recomputing from the leaves answers.
        #[test]
        fn prop_cached_tree_matches_reference(
            ops in proptest::collection::vec((0u8..9, any::<u64>(), any::<u64>()), 1..120),
        ) {
            let mut t = MerkleTree::new();
            let mut appended = 0u64;
            let mut append = |t: &mut MerkleTree, tag: &str| {
                appended += 1;
                t.append(format!("{tag}-{appended}").as_bytes());
            };
            // Proofs kept to be verified again once the tree has grown.
            let mut inclusions = Vec::new();
            let mut consistencies = Vec::new();
            for (op, a, b) in ops {
                let len = t.len();
                // A size in 0..=len, the current one half the time.
                let k = if b % 2 == 0 { len } else { (b / 2) as usize % (len + 1) };
                match op {
                    0..=3 => (0..=a % 16).for_each(|_| append(&mut t, "leaf")),
                    4 => prop_assert_eq!(t.root(), reference::root(&t.leaves)),
                    5 => prop_assert_eq!(t.root_at(k).unwrap(), reference::root(&t.leaves[..k])),
                    6 if k > 0 => {
                        let i = a as usize % k;
                        let proof = t.prove_inclusion(i, k).unwrap();
                        let mut path = Vec::new();
                        reference::inclusion_path(&t.leaves[..k], i, &mut path);
                        prop_assert_eq!(&proof.path, &path);
                        prop_assert!(proof.verify_leaf_hash(t.leaves[i], &t.root_at(k).unwrap()).is_ok());
                        inclusions.push(proof);
                    }
                    7 => {
                        let m = a as usize % (k + 1);
                        let proof = t.prove_consistency(m, k).unwrap();
                        let mut path = Vec::new();
                        if m > 0 && m < k {
                            reference::consistency_path(&t.leaves[..k], m, true, &mut path);
                        }
                        prop_assert_eq!(&proof.path, &path);
                        prop_assert!(proof
                            .verify(&t.root_at(m).unwrap(), &t.root_at(k).unwrap())
                            .is_ok());
                        consistencies.push(proof);
                    }
                    8 => {
                        // A clone owns its cache: both sides grow apart.
                        let mut fork = t.clone();
                        (0..=a % 16).for_each(|_| append(&mut fork, "fork"));
                        (0..=a % 16).for_each(|_| append(&mut t, "leaf"));
                        prop_assert_eq!(fork.root(), reference::root(&fork.leaves));
                        prop_assert_eq!(t.root(), reference::root(&t.leaves));
                        prop_assert_ne!(fork.root(), t.root());
                        prop_assert_eq!(fork.root_at(len).unwrap(), t.root_at(len).unwrap());
                    }
                    _ => {}
                }
            }
            for p in inclusions {
                let root = reference::root(&t.leaves[..p.tree_size]);
                prop_assert!(p.verify_leaf_hash(t.leaves[p.leaf_index], &root).is_ok());
            }
            for p in consistencies {
                let old = reference::root(&t.leaves[..p.old_size]);
                let new = reference::root(&t.leaves[..p.new_size]);
                prop_assert!(p.verify(&old, &new).is_ok());
            }
        }
    }
}
