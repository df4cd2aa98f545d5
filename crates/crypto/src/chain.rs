//! Chain of Merkle hash trees over a blocked sequence (paper §3.3.2).
//!
//! An inverted list is stored as blocks of at most ρ entries. An embedded
//! MHT is built inside each block; moving from the last block towards the
//! front, the digest of each block is appended as an extra object in the
//! MHT of the block immediately ahead of it (Figure 9):
//!
//! ```text
//! digest_last = MHT(block_last.leaves)
//! digest_j    = MHT(block_j.leaves + digest_{j+1})
//! signature   = sign(h(header | digest_1))        // done by the caller
//! ```
//!
//! Any prefix of the sequence can then be authenticated with the head
//! signature plus at most `log2(ρ+1)` digests from the last-touched block
//! and the digest of the block after it — independent of the list length,
//! which is the scheme's whole point.
//!
//! Entry leaves arrive hashed as [`Digest::leaf`]; the successor's digest
//! enters its predecessor's MHT unhashed. It is a block root, an
//! interior-domain digest, and the chain's shape (`num_leaves`, ρ) fixes
//! the one slot it may occupy: the last object of every block but the
//! last.

use crate::digest::Digest;
use crate::merkle::{reconstruct_root, MerkleProof, MerkleTree};

/// A chain-MHT materialized over leaf digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainMht {
    capacity: usize,
    num_leaves: usize,
    /// `block_digests[j]` = digest of block `j` (already chained).
    block_digests: Vec<Digest>,
    /// Leaf digests, in sequence order (shared with the stored list).
    leaves: Vec<Digest>,
}

/// Proof that `k` revealed leaves are exactly the prefix of the sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChainPrefixProof {
    /// Multi-proof inside the last-touched block. Its unrevealed objects
    /// include the digest of the succeeding block, so the "next block
    /// digest" of the paper's VO rides along here. For `k = 0` this is the
    /// single head digest.
    pub tail: MerkleProof,
}

impl ChainPrefixProof {
    /// Serialized size in bytes charged to the VO.
    pub fn size_bytes(&self) -> usize {
        self.tail.size_bytes()
    }

    /// Number of digests carried.
    pub fn num_digests(&self) -> usize {
        self.tail.digests.len()
    }
}

impl ChainMht {
    /// Build over leaf digests with blocks of `capacity` (the paper's ρ).
    pub fn build(leaves: Vec<Digest>, capacity: usize) -> ChainMht {
        assert!(capacity >= 1, "block capacity must be positive");
        assert!(!leaves.is_empty(), "chain-MHT over zero leaves");
        let num_blocks = leaves.len().div_ceil(capacity);
        let mut block_digests = vec![Digest::ZERO; num_blocks];
        // Back-to-front chaining.
        for j in (0..num_blocks).rev() {
            let lo = j * capacity;
            let hi = ((j + 1) * capacity).min(leaves.len());
            let mut objs: Vec<Digest> = leaves[lo..hi].to_vec();
            if j + 1 < num_blocks {
                objs.push(block_digests[j + 1]);
            }
            block_digests[j] = MerkleTree::from_leaf_digests(objs).root();
        }
        ChainMht {
            capacity,
            num_leaves: leaves.len(),
            block_digests,
            leaves,
        }
    }

    /// Digest of the first block — the value the data owner signs.
    pub fn head_digest(&self) -> Digest {
        self.block_digests[0]
    }

    /// Number of blocks in the chain.
    pub fn num_blocks(&self) -> usize {
        self.block_digests.len()
    }

    /// Block capacity ρ.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Prove that the first `k` leaves are the prefix (0 ≤ k ≤ len).
    pub fn prove_prefix(&self, k: usize) -> ChainPrefixProof {
        assert!(k <= self.num_leaves, "prefix beyond sequence end");
        if k == 0 {
            return ChainPrefixProof {
                tail: MerkleProof {
                    digests: vec![self.head_digest()],
                },
            };
        }
        let jb = (k - 1) / self.capacity;
        let lo = jb * self.capacity;
        let hi = ((jb + 1) * self.capacity).min(self.num_leaves);
        let mut objs: Vec<Digest> = self.leaves[lo..hi].to_vec();
        if jb + 1 < self.num_blocks() {
            objs.push(self.block_digests[jb + 1]);
        }
        let tree = MerkleTree::from_leaf_digests(objs);
        let revealed: Vec<usize> = (0..k - lo).collect();
        ChainPrefixProof {
            tail: tree.prove(&revealed),
        }
    }

    /// Blocks that must be fetched from disk to answer a `k`-prefix read
    /// *and* construct its proof: exactly the blocks holding the prefix
    /// (the chain's advantage over a monolithic MHT, which must scan the
    /// whole list to regenerate digests).
    pub fn blocks_touched(&self, k: usize) -> usize {
        if k == 0 {
            // Header/head-digest read only.
            1
        } else {
            (k - 1) / self.capacity + 1
        }
    }
}

/// Recompute the head digest from `k` revealed prefix leaf digests and a
/// prefix proof, for a chain of `num_leaves` total leaves in blocks of
/// `capacity`. `None` on any shape mismatch (malformed VO).
pub fn reconstruct_head(
    num_leaves: usize,
    capacity: usize,
    revealed: &[Digest],
    proof: &ChainPrefixProof,
) -> Option<Digest> {
    if capacity == 0 || num_leaves == 0 || revealed.len() > num_leaves {
        return None;
    }
    let k = revealed.len();
    let num_blocks = num_leaves.div_ceil(capacity);
    if k == 0 {
        if proof.tail.digests.len() != 1 {
            return None;
        }
        return Some(proof.tail.digests[0]);
    }
    let jb = (k - 1) / capacity;
    let lo = jb * capacity;
    let hi = ((jb + 1) * capacity).min(num_leaves);
    let objs_in_tail = (hi - lo) + usize::from(jb + 1 < num_blocks);

    // Reconstruct the last-touched block from its multi-proof.
    let pairs: Vec<(usize, Digest)> = revealed[lo..]
        .iter()
        .enumerate()
        .map(|(i, &d)| (i, d))
        .collect();
    let mut digest = reconstruct_root(objs_in_tail, &pairs, &proof.tail)?;

    // Fold the fully revealed earlier blocks forward to the head.
    for j in (0..jb).rev() {
        let blo = j * capacity;
        let bhi = (j + 1) * capacity; // earlier blocks are always full
        let mut objs: Vec<Digest> = revealed[blo..bhi].to_vec();
        objs.push(digest);
        digest = MerkleTree::from_leaf_digests(objs).root();
    }
    Some(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(i: usize) -> Digest {
        Digest::leaf(format!("entry-{i}").as_bytes())
    }

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(leaf).collect()
    }

    #[test]
    fn single_block_head_is_plain_mht() {
        let l = leaves(5);
        let chain = ChainMht::build(l.clone(), 8);
        assert_eq!(chain.num_blocks(), 1);
        assert_eq!(chain.head_digest(), MerkleTree::from_leaf_digests(l).root());
    }

    #[test]
    fn chaining_includes_successor_digest() {
        let l = leaves(6);
        let chain = ChainMht::build(l.clone(), 3);
        assert_eq!(chain.num_blocks(), 2);
        let d2 = MerkleTree::from_leaf_digests(l[3..6].to_vec()).root();
        let mut objs = l[..3].to_vec();
        objs.push(d2);
        let d1 = MerkleTree::from_leaf_digests(objs).root();
        assert_eq!(chain.head_digest(), d1);
    }

    #[test]
    fn every_prefix_of_every_shape_verifies() {
        for n in [1usize, 2, 3, 7, 8, 9, 20] {
            for cap in [1usize, 2, 3, 8, 64] {
                let l = leaves(n);
                let chain = ChainMht::build(l.clone(), cap);
                for k in 0..=n {
                    let proof = chain.prove_prefix(k);
                    let head = reconstruct_head(n, cap, &l[..k], &proof);
                    assert_eq!(head, Some(chain.head_digest()), "n={n} cap={cap} k={k}");
                }
            }
        }
    }

    #[test]
    fn tampered_prefix_leaf_breaks_head() {
        let l = leaves(12);
        let chain = ChainMht::build(l.clone(), 4);
        let proof = chain.prove_prefix(6);
        let mut tampered = l[..6].to_vec();
        tampered[2] = Digest::leaf(b"forged entry");
        let head = reconstruct_head(12, 4, &tampered, &proof).unwrap();
        assert_ne!(head, chain.head_digest());
    }

    #[test]
    fn reordered_prefix_breaks_head() {
        let l = leaves(12);
        let chain = ChainMht::build(l.clone(), 4);
        let proof = chain.prove_prefix(6);
        let mut swapped = l[..6].to_vec();
        swapped.swap(0, 1);
        let head = reconstruct_head(12, 4, &swapped, &proof).unwrap();
        assert_ne!(head, chain.head_digest());
    }

    #[test]
    fn shortened_prefix_with_wrong_proof_rejected() {
        // Claiming fewer processed entries than the proof encodes must not
        // silently verify.
        let l = leaves(12);
        let chain = ChainMht::build(l.clone(), 4);
        let proof_for_6 = chain.prove_prefix(6);
        let head = reconstruct_head(12, 4, &l[..3], &proof_for_6);
        assert_ne!(head, Some(chain.head_digest()));
    }

    #[test]
    fn proof_size_independent_of_list_length() {
        // The paper's headline property: digests per list ∝ log2(ρ+1),
        // not ∝ list length.
        let cap = 16;
        let k = 5;
        let mut sizes = Vec::new();
        for n in [32usize, 256, 4096] {
            let chain = ChainMht::build(leaves(n), cap);
            sizes.push(chain.prove_prefix(k).num_digests());
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "sizes={sizes:?}");
    }

    #[test]
    fn blocks_touched_counts() {
        let chain = ChainMht::build(leaves(20), 8);
        assert_eq!(chain.blocks_touched(0), 1);
        assert_eq!(chain.blocks_touched(1), 1);
        assert_eq!(chain.blocks_touched(8), 1);
        assert_eq!(chain.blocks_touched(9), 2);
        assert_eq!(chain.blocks_touched(20), 3);
    }

    #[test]
    fn zero_prefix_carries_head_digest() {
        let chain = ChainMht::build(leaves(10), 4);
        let proof = chain.prove_prefix(0);
        assert_eq!(proof.num_digests(), 1);
        assert_eq!(
            reconstruct_head(10, 4, &[], &proof),
            Some(chain.head_digest())
        );
    }

    #[test]
    fn malformed_zero_prefix_proof_rejected() {
        let proof = ChainPrefixProof {
            tail: MerkleProof { digests: vec![] },
        };
        assert_eq!(reconstruct_head(10, 4, &[], &proof), None);
    }

    #[test]
    fn oversized_reveal_rejected() {
        let chain = ChainMht::build(leaves(4), 4);
        let proof = chain.prove_prefix(4);
        let too_many = leaves(5);
        assert_eq!(reconstruct_head(4, 4, &too_many, &proof), None);
    }
}
