//! Merkle hash trees with multi-leaf proofs.
//!
//! The tree shape follows the paper's figures exactly: leaves are paired
//! left-to-right and an odd trailing node is *promoted* unchanged to the
//! next level (Figure 8 shows seven leaves combining as
//! `h12 h34 h56 h7 → h1-4 h5-7 → h1-7`). Under this pairing, the node at
//! position `i` of level `l` covers the leaf range
//! `[i·2^l, min((i+1)·2^l, n))`, which makes proof generation and
//! verification symmetric recursions over that range structure. Each
//! recursion carries the slice of revealed positions inside the current
//! node's range and splits it between the children with one binary
//! search, so a node costs `O(log k)` for `k` revealed leaves, with no
//! copy of the set and no search of the whole set; the prover sizes its
//! proof exactly before filling it.
//!
//! A [`MerkleProof`] authenticates an arbitrary subset of leaves: it holds
//! the digests of the maximal subtrees containing no revealed leaf, in
//! root-to-leaf DFS order. The paper's VOs are built from these proofs
//! (plus the buddy-inclusion policy applied by the caller when choosing the
//! revealed set).
//!
//! Leaves and interior nodes hash in separate domains: a leaf digest is
//! [`Digest::leaf`] (`h(0x00 | leaf)`), an interior node
//! [`Digest::combine`] (`h(0x01 | left | right)`), in every tree of the
//! scheme. Callers that pass pre-hashed leaves
//! ([`MerkleTree::from_leaf_digests`], [`reconstruct_root`]) compute them
//! with [`Digest::leaf`]; the one exception is the chain-MHT's successor
//! slot ([`crate::chain`]), which holds the next block's *root* at a
//! position the chain's shape fixes.

use crate::digest::Digest;

/// A Merkle hash tree materialized over a set of leaf digests.
///
/// The paper stores only the root and the leaves, regenerating internal
/// digests at runtime (\[13\]); accordingly this structure is cheap to build
/// on demand from the stored leaf layer.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// Leaf digests (level 0).
    leaves: Vec<Digest>,
    /// Every level above the leaves, root last ([`interior_levels`]).
    interior: Vec<Digest>,
}

/// Complementary digests proving membership of a revealed leaf subset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MerkleProof {
    /// Digests of maximal unrevealed subtrees, in root-to-leaf DFS order.
    pub digests: Vec<Digest>,
}

impl MerkleProof {
    /// Serialized size in bytes (16 bytes per digest) — the quantity the
    /// paper charges to the VO.
    pub fn size_bytes(&self) -> usize {
        self.digests.len() * crate::digest::DIGEST_LEN
    }
}

impl MerkleTree {
    /// Build a tree over pre-hashed leaves. Panics on zero leaves (an empty
    /// inverted list is never indexed; the dictionary drops such terms).
    pub fn from_leaf_digests(leaves: Vec<Digest>) -> MerkleTree {
        assert!(!leaves.is_empty(), "Merkle tree over zero leaves");
        MerkleTree {
            interior: interior_levels(&leaves),
            leaves,
        }
    }

    /// Root digest.
    pub fn root(&self) -> Digest {
        self.interior.last().copied().unwrap_or(self.leaves[0])
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Leaf digests (the stored layer).
    pub fn leaf_digests(&self) -> &[Digest] {
        &self.leaves
    }

    /// Produce the complementary digests for `revealed` leaf positions
    /// (must be sorted and in range; duplicates are tolerated).
    pub fn prove(&self, revealed: &[usize]) -> MerkleProof {
        prove_from_interior(self.leaves.len(), &self.interior, revealed, |i| {
            self.leaves[i]
        })
    }
}

/// Digests in the levels above the leaves of an `n`-leaf tree: the length
/// of its [`interior_levels`] (0 for fewer than two leaves).
pub fn interior_len(n: usize) -> usize {
    let (mut total, mut width) = (0, n);
    while width > 1 {
        width = width.div_ceil(2);
        total += width;
    }
    total
}

/// Every level above `leaves`, laid end to end from level 1 up to the
/// root, in one allocation of exactly [`interior_len`] digests — so
/// `.last()` is the root for two or more leaves. Empty for a single
/// leaf, which is its own root.
pub fn interior_levels(leaves: &[Digest]) -> Vec<Digest> {
    let mut out = vec![Digest::ZERO; interior_len(leaves.len())];
    if leaves.len() < 2 {
        return out;
    }
    let mut width = leaves.len().div_ceil(2);
    fold_level(leaves, &mut out[..width]);
    let mut start = 0;
    while width > 1 {
        let next = width.div_ceil(2);
        let (done, rest) = out.split_at_mut(start + width);
        fold_level(&done[start..], &mut rest[..next]);
        start += width;
        width = next;
    }
    out
}

/// Write the parents of level `prev` into `next` (its `⌈len/2⌉` slots).
fn fold_level(prev: &[Digest], next: &mut [Digest]) {
    let pairs = prev.chunks_exact(2);
    if let (Some(&odd), Some(last)) = (pairs.remainder().first(), next.last_mut()) {
        // Odd node: promoted unchanged (paper Figure 8).
        *last = odd;
    }
    for (parent, pair) in next.iter_mut().zip(pairs) {
        *parent = Digest::combine(&pair[0], &pair[1]);
    }
}

/// Height of an `n`-leaf tree: the level its root sits at.
fn height(n: usize) -> usize {
    let (mut h, mut width) = (0, n);
    while width > 1 {
        width = width.div_ceil(2);
        h += 1;
    }
    h
}

/// Produce the complementary digests for `revealed` leaf positions of an
/// `n`-leaf tree (sorted and in range; duplicates are tolerated), taking
/// each digest the proof needs from `node(level, idx)`. The one prover:
/// [`MerkleTree::prove`] and [`prove_from_interior`] only differ in the
/// node source they pass.
///
/// One walk counts the digests and a second fills a proof allocated at
/// exactly that length; each walk splits the revealed positions between
/// a node's children with one binary search.
pub fn prove_with(
    n: usize,
    revealed: &[usize],
    mut node: impl FnMut(usize, usize) -> Digest,
) -> MerkleProof {
    debug_assert!(revealed.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(revealed.iter().all(|&i| i < n));
    if n == 0 {
        return MerkleProof::default();
    }
    let mut digests = Vec::with_capacity(proof_len(n, revealed));
    unrevealed_subtrees(n, height(n), 0, revealed, &mut |level, idx| {
        digests.push(node(level, idx));
    });
    MerkleProof { digests }
}

/// Digests in the proof of `revealed` leaf positions of an `n`-leaf tree
/// (sorted and in range): the length of [`prove_with`]'s proof, counted
/// without reading a digest.
pub fn proof_len(n: usize, revealed: &[usize]) -> usize {
    if n == 0 {
        return 0;
    }
    let mut len = 0;
    unrevealed_subtrees(n, height(n), 0, revealed, &mut |_, _| len += 1);
    len
}

/// Visit `(level, idx)` of every maximal subtree under node `(level,
/// idx)` of an `n`-leaf tree that holds none of `revealed` — the sorted
/// positions inside that node's leaf range — in root-to-leaf DFS order.
fn unrevealed_subtrees<F: FnMut(usize, usize)>(
    n: usize,
    level: usize,
    idx: usize,
    revealed: &[usize],
    visit: &mut F,
) {
    if revealed.is_empty() {
        visit(level, idx);
        return;
    }
    if level == 0 {
        return; // revealed leaf: verifier computes its digest itself
    }
    // The right child covers `[mid, …)` and exists when `mid < n`.
    let left = 2 * idx;
    let mid = (left + 1) << (level - 1);
    let split = revealed.partition_point(|&p| p < mid);
    unrevealed_subtrees(n, level - 1, left, &revealed[..split], visit);
    if mid < n {
        unrevealed_subtrees(n, level - 1, left + 1, &revealed[split..], visit);
    }
}

/// [`prove_with`] over a tree held as its [`interior_levels`] alone:
/// interior nodes come from `interior`, and `leaf(i)` supplies the digest
/// of each unrevealed leaf the proof needs, so the leaf layer need not be
/// resident.
pub fn prove_from_interior(
    n: usize,
    interior: &[Digest],
    revealed: &[usize],
    mut leaf: impl FnMut(usize) -> Digest,
) -> MerkleProof {
    // starts[l]: where level l ≥ 1 begins inside `interior`.
    let mut starts = [0usize; usize::BITS as usize + 1];
    let (mut at, mut width) = (0, n);
    for start in starts.iter_mut().skip(1) {
        if width <= 1 {
            break;
        }
        *start = at;
        width = width.div_ceil(2);
        at += width;
    }
    prove_with(n, revealed, |level, idx| {
        if level == 0 {
            leaf(idx)
        } else {
            interior[starts[level] + idx]
        }
    })
}

/// Recompute the root of an `n`-leaf tree from revealed `(position, digest)`
/// pairs (sorted by position) and a proof. Returns `None` when the proof
/// does not have exactly the required shape — a malformed VO.
pub fn reconstruct_root(
    n: usize,
    revealed: &[(usize, Digest)],
    proof: &MerkleProof,
) -> Option<Digest> {
    if n == 0 {
        return None;
    }
    if revealed.windows(2).any(|w| w[0].0 >= w[1].0) {
        return None; // unsorted or duplicate positions
    }
    if revealed.last().is_some_and(|&(p, _)| p >= n) {
        return None;
    }
    let mut digests = proof.digests.iter();
    let root = rebuild(n, height(n), 0, revealed, &mut digests)?;
    // Trailing digests: the proof is longer than the shape allows.
    digests.next().is_none().then_some(root)
}

/// The digest of the node at `level` whose leaf range starts at `lo`,
/// from `revealed` (the strictly increasing pairs inside that range) and
/// the proof digests still unread.
fn rebuild(
    n: usize,
    level: usize,
    lo: usize,
    revealed: &[(usize, Digest)],
    digests: &mut std::slice::Iter<'_, Digest>,
) -> Option<Digest> {
    if revealed.is_empty() {
        return digests.next().copied();
    }
    if level == 0 {
        // One leaf wide and strictly increasing: exactly leaf `lo`.
        return Some(revealed[0].1);
    }
    // Mirror the construction: a right child exists when its leaf range
    // starts inside the tree.
    let mid = lo + (1 << (level - 1));
    let split = revealed.partition_point(|&(p, _)| p < mid);
    let l = rebuild(n, level - 1, lo, &revealed[..split], digests)?;
    if mid < n {
        let r = rebuild(n, level - 1, mid, &revealed[split..], digests)?;
        Some(Digest::combine(&l, &r))
    } else {
        Some(l) // promoted odd node
    }
}

#[cfg(test)]
impl MerkleTree {
    /// Build a tree by hashing raw leaf encodings ([`Digest::leaf`]).
    pub(crate) fn from_leaves<T: AsRef<[u8]>>(leaves: &[T]) -> MerkleTree {
        Self::from_leaf_digests(leaves.iter().map(|l| Digest::leaf(l.as_ref())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    fn leaf_digest(i: usize) -> Digest {
        Digest::leaf(format!("leaf-{i}").as_bytes())
    }

    #[test]
    fn single_leaf_root_is_leaf_digest() {
        let t = MerkleTree::from_leaves(&leaves(1));
        assert_eq!(t.root(), leaf_digest(0));
    }

    #[test]
    fn four_leaf_root_matches_manual() {
        // Figure 3 of the paper: N1,2,3,4 = h(h(N1|N2) | h(N3|N4)).
        let t = MerkleTree::from_leaves(&leaves(4));
        let n12 = Digest::combine(&leaf_digest(0), &leaf_digest(1));
        let n34 = Digest::combine(&leaf_digest(2), &leaf_digest(3));
        assert_eq!(t.root(), Digest::combine(&n12, &n34));
    }

    #[test]
    fn seven_leaf_promotion_matches_figure8() {
        // h1-7 = h( h(h12|h34) | h(h56|h7) ): the odd h7 is promoted.
        let t = MerkleTree::from_leaves(&leaves(7));
        let h: Vec<Digest> = (0..7).map(leaf_digest).collect();
        let h12 = Digest::combine(&h[0], &h[1]);
        let h34 = Digest::combine(&h[2], &h[3]);
        let h56 = Digest::combine(&h[4], &h[5]);
        let h1_4 = Digest::combine(&h12, &h34);
        let h5_7 = Digest::combine(&h56, &h[6]);
        assert_eq!(t.root(), Digest::combine(&h1_4, &h5_7));
    }

    #[test]
    fn figure3_single_leaf_proof() {
        // Authenticate m1 out of four: VO = {N2, N3,4}.
        let t = MerkleTree::from_leaves(&leaves(4));
        let proof = t.prove(&[0]);
        assert_eq!(proof.digests.len(), 2);
        let n34 = Digest::combine(&leaf_digest(2), &leaf_digest(3));
        assert_eq!(proof.digests[0], leaf_digest(1)); // N2
        assert_eq!(proof.digests[1], n34); // N3,4

        let root = reconstruct_root(4, &[(0, leaf_digest(0))], &proof).unwrap();
        assert_eq!(root, t.root());
    }

    #[test]
    fn prefix_proofs_all_sizes() {
        // Term-MHT usage: reveal a prefix of the list (Figure 7).
        for n in [1usize, 2, 3, 5, 8, 13, 16, 33] {
            let t = MerkleTree::from_leaves(&leaves(n));
            for k in 1..=n {
                let revealed: Vec<usize> = (0..k).collect();
                let proof = t.prove(&revealed);
                let pairs: Vec<(usize, Digest)> = (0..k).map(|i| (i, leaf_digest(i))).collect();
                let root = reconstruct_root(n, &pairs, &proof).unwrap();
                assert_eq!(root, t.root(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn figure7_prefix_of_four_over_eight() {
        // Figure 7: 8-entry list, first 4 processed → exactly one digest
        // (h5-8) in the VO.
        let t = MerkleTree::from_leaves(&leaves(8));
        let proof = t.prove(&[0, 1, 2, 3]);
        assert_eq!(proof.digests.len(), 1);
    }

    #[test]
    fn scattered_subsets_verify() {
        let n = 21;
        let t = MerkleTree::from_leaves(&leaves(n));
        let subsets: &[&[usize]] = &[
            &[0],
            &[20],
            &[0, 20],
            &[3, 4, 5],
            &[0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
            &[7, 13],
        ];
        for subset in subsets {
            let proof = t.prove(subset);
            let pairs: Vec<(usize, Digest)> = subset.iter().map(|&i| (i, leaf_digest(i))).collect();
            assert_eq!(
                reconstruct_root(n, &pairs, &proof),
                Some(t.root()),
                "subset={subset:?}"
            );
        }
    }

    #[test]
    fn interior_node_cannot_pass_as_a_leaf() {
        // The classic second preimage: a two-leaf tree whose leaves are
        // the concatenated children of the four-leaf tree's two interior
        // nodes. Were leaves and interior nodes hashed alike (`h(l | r)`)
        // its leaves would be those interior nodes and both trees would
        // share one root; the domain prefixes keep them apart.
        let four = MerkleTree::from_leaves(&leaves(4));
        let pair = |a: usize, b: usize| [leaf_digest(a).0, leaf_digest(b).0].concat();
        let two = MerkleTree::from_leaves(&[pair(0, 1), pair(2, 3)]);
        let n01 = Digest::combine(&leaf_digest(0), &leaf_digest(1));
        assert_ne!(two.leaf_digests()[0], n01);
        assert_ne!(two.root(), four.root());
    }

    #[test]
    fn wrong_leaf_digest_changes_root() {
        let t = MerkleTree::from_leaves(&leaves(8));
        let proof = t.prove(&[2]);
        let bad = Digest::hash(b"forged");
        let root = reconstruct_root(8, &[(2, bad)], &proof).unwrap();
        assert_ne!(root, t.root());
    }

    #[test]
    fn truncated_proof_rejected() {
        let t = MerkleTree::from_leaves(&leaves(8));
        let mut proof = t.prove(&[0]);
        proof.digests.pop();
        assert_eq!(reconstruct_root(8, &[(0, leaf_digest(0))], &proof), None);
    }

    #[test]
    fn oversized_proof_rejected() {
        let t = MerkleTree::from_leaves(&leaves(8));
        let mut proof = t.prove(&[0]);
        proof.digests.push(Digest::ZERO);
        assert_eq!(reconstruct_root(8, &[(0, leaf_digest(0))], &proof), None);
    }

    #[test]
    fn out_of_range_position_rejected() {
        let t = MerkleTree::from_leaves(&leaves(4));
        let proof = t.prove(&[0]);
        assert_eq!(reconstruct_root(4, &[(9, leaf_digest(0))], &proof), None);
    }

    #[test]
    fn unsorted_positions_rejected() {
        let t = MerkleTree::from_leaves(&leaves(4));
        let proof = t.prove(&[0, 1]);
        let pairs = [(1, leaf_digest(1)), (0, leaf_digest(0))];
        assert_eq!(reconstruct_root(4, &pairs, &proof), None);
    }

    #[test]
    fn full_reveal_needs_no_digests() {
        let n = 11;
        let t = MerkleTree::from_leaves(&leaves(n));
        let all: Vec<usize> = (0..n).collect();
        let proof = t.prove(&all);
        assert!(proof.digests.is_empty());
        let pairs: Vec<(usize, Digest)> = (0..n).map(|i| (i, leaf_digest(i))).collect();
        assert_eq!(reconstruct_root(n, &pairs, &proof), Some(t.root()));
    }

    /// Oracle levels: the textbook fold, one `Vec` per level.
    fn naive_levels(leaves: &[Digest]) -> Vec<Vec<Digest>> {
        let mut levels = vec![leaves.to_vec()];
        while let Some(prev) = levels.last().filter(|l| l.len() > 1) {
            let next = prev
                .chunks(2)
                .map(|p| {
                    if p.len() == 2 {
                        Digest::combine(&p[0], &p[1])
                    } else {
                        p[0]
                    }
                })
                .collect();
            levels.push(next);
        }
        levels
    }

    #[test]
    fn interior_provers_match_the_tree_prover() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x6d68_7473);
        for n in 1..=300usize {
            let leaf_digests: Vec<Digest> = (0..n).map(leaf_digest).collect();
            let levels = naive_levels(&leaf_digests);
            let interior = interior_levels(&leaf_digests);
            assert_eq!(interior, levels[1..].concat(), "n={n}");
            assert_eq!(interior.len(), interior_len(n), "n={n}");
            let tree = MerkleTree::from_leaf_digests(leaf_digests.clone());
            assert_eq!(tree.root(), levels[levels.len() - 1][0], "n={n}");
            if n >= 2 {
                assert_eq!(interior.last(), Some(&tree.root()), "n={n}");
            }
            for _ in 0..6 {
                // Random sorted positions with duplicates; the empty set
                // comes up whenever the draw count is 0.
                let count = rng.gen_range(0..=n.min(12));
                let mut revealed: Vec<usize> = (0..count).map(|_| rng.gen_range(0..n)).collect();
                revealed.sort_unstable();
                let want = prove_with(n, &revealed, |l, i| levels[l][i]);
                let mut leaf_calls = 0;
                let got = prove_from_interior(n, &interior, &revealed, |i| {
                    leaf_calls += 1;
                    leaf_digest(i)
                });
                assert_eq!(got, want, "n={n} revealed={revealed:?}");
                assert_eq!(tree.prove(&revealed), want, "n={n} revealed={revealed:?}");
                assert_eq!(proof_len(n, &revealed), want.digests.len(), "n={n}");
                let mut pairs: Vec<(usize, Digest)> =
                    revealed.iter().map(|&i| (i, leaf_digest(i))).collect();
                pairs.dedup();
                // Only siblings of revealed leaves are rehashed (or the
                // lone leaf of a one-leaf tree proved with nothing revealed).
                assert!(
                    leaf_calls <= pairs.len().max(1),
                    "n={n} revealed={revealed:?}"
                );
                if !pairs.is_empty() {
                    assert_eq!(reconstruct_root(n, &pairs, &got), Some(tree.root()));
                }
            }
        }
    }

    // ---- Oracles: the walkers before sub-slice splitting ----------------
    //
    // Both search the whole revealed set at every node, and the verifier
    // copies the positions out first; kept to pin the walkers above.

    /// True when some revealed position falls inside `[lo, hi)`.
    fn range_has_revealed(revealed: &[usize], lo: usize, hi: usize) -> bool {
        let start = revealed.partition_point(|&p| p < lo);
        start < revealed.len() && revealed[start] < hi
    }

    fn oracle_prove_with(
        n: usize,
        revealed: &[usize],
        mut node: impl FnMut(usize, usize) -> Digest,
    ) -> MerkleProof {
        let mut digests = Vec::new();
        if n > 0 {
            prove_rec(n, height(n), 0, revealed, &mut node, &mut digests);
        }
        MerkleProof { digests }
    }

    fn prove_rec<F: FnMut(usize, usize) -> Digest>(
        n: usize,
        level: usize,
        idx: usize,
        revealed: &[usize],
        node: &mut F,
        out: &mut Vec<Digest>,
    ) {
        let lo = idx << level;
        let hi = ((idx + 1) << level).min(n);
        if !range_has_revealed(revealed, lo, hi) {
            out.push(node(level, idx));
            return;
        }
        if level == 0 {
            return;
        }
        let left = 2 * idx;
        prove_rec(n, level - 1, left, revealed, node, out);
        if (left + 1) << (level - 1) < n {
            prove_rec(n, level - 1, left + 1, revealed, node, out);
        }
    }

    fn oracle_reconstruct_root(
        n: usize,
        revealed: &[(usize, Digest)],
        proof: &MerkleProof,
    ) -> Option<Digest> {
        if n == 0 {
            return None;
        }
        if revealed.windows(2).any(|w| w[0].0 >= w[1].0) {
            return None;
        }
        if revealed.iter().any(|&(p, _)| p >= n) {
            return None;
        }
        let positions: Vec<usize> = revealed.iter().map(|&(p, _)| p).collect();
        let mut cursor = 0usize;
        let root = reconstruct_rec(height(n), 0, n, revealed, &positions, proof, &mut cursor)?;
        if cursor != proof.digests.len() {
            return None;
        }
        Some(root)
    }

    fn reconstruct_rec(
        level: usize,
        idx: usize,
        n: usize,
        revealed: &[(usize, Digest)],
        positions: &[usize],
        proof: &MerkleProof,
        cursor: &mut usize,
    ) -> Option<Digest> {
        let lo = idx << level;
        let hi = ((idx + 1) << level).min(n);
        if !range_has_revealed(positions, lo, hi) {
            let d = proof.digests.get(*cursor)?;
            *cursor += 1;
            return Some(*d);
        }
        if level == 0 {
            let i = revealed.binary_search_by_key(&lo, |&(p, _)| p).ok()?;
            return Some(revealed[i].1);
        }
        let left = 2 * idx;
        let l = reconstruct_rec(level - 1, left, n, revealed, positions, proof, cursor)?;
        if (left + 1) << (level - 1) < n {
            let r = reconstruct_rec(level - 1, left + 1, n, revealed, positions, proof, cursor)?;
            Some(Digest::combine(&l, &r))
        } else {
            Some(l)
        }
    }

    /// Malformed variants of an honest `(revealed, proof)`: a proof one
    /// digest short and one long, unsorted, duplicate and out-of-range
    /// positions, and the empty revealed set.
    fn malformed(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        pairs: &[(usize, Digest)],
        proof: &MerkleProof,
    ) -> Vec<(Vec<(usize, Digest)>, MerkleProof)> {
        use rand::Rng;
        let mut cases = Vec::new();
        let mut short = proof.clone();
        if short.digests.pop().is_some() {
            cases.push((pairs.to_vec(), short));
        }
        let mut long = proof.clone();
        long.digests.push(Digest::hash(b"extra"));
        cases.push((pairs.to_vec(), long));
        if pairs.len() >= 2 {
            let mut unsorted = pairs.to_vec();
            let i = rng.gen_range(0..pairs.len() - 1);
            unsorted.swap(i, i + 1);
            cases.push((unsorted, proof.clone()));
        }
        if !pairs.is_empty() {
            let mut dup = pairs.to_vec();
            let i = rng.gen_range(0..pairs.len());
            dup.insert(i, pairs[i]);
            cases.push((dup, proof.clone()));
            let mut out_of_range = pairs.to_vec();
            let last = out_of_range.len() - 1;
            out_of_range[last].0 = n + rng.gen_range(0..3usize);
            cases.push((out_of_range, proof.clone()));
        }
        cases.push((Vec::new(), proof.clone()));
        cases
    }

    #[test]
    fn walkers_match_their_oracles_on_random_and_malformed_input() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7761_6c6b);
        for n in 1..=300usize {
            let leaf_digests: Vec<Digest> = (0..n).map(leaf_digest).collect();
            let levels = naive_levels(&leaf_digests);
            let node = |level: usize, idx: usize| levels[level][idx];
            let root = levels[levels.len() - 1][0];
            for _ in 0..8 {
                // Sorted positions with duplicates; empty when the draw
                // count is 0.
                let count = rng.gen_range(0..=n.min(24));
                let mut revealed: Vec<usize> = (0..count).map(|_| rng.gen_range(0..n)).collect();
                revealed.sort_unstable();
                let proof = prove_with(n, &revealed, node);
                let want = oracle_prove_with(n, &revealed, node);
                assert_eq!(proof, want, "n={n} revealed={revealed:?}");
                assert_eq!(
                    proof.digests.capacity(),
                    proof.digests.len(),
                    "sized exactly"
                );

                revealed.dedup();
                let pairs: Vec<(usize, Digest)> =
                    revealed.iter().map(|&i| (i, leaf_digests[i])).collect();
                let got = reconstruct_root(n, &pairs, &proof);
                assert_eq!(got, Some(root), "n={n} revealed={revealed:?}");
                assert_eq!(got, oracle_reconstruct_root(n, &pairs, &proof));
                for (bad, bad_proof) in malformed(&mut rng, n, &pairs, &proof) {
                    assert_eq!(
                        reconstruct_root(n, &bad, &bad_proof),
                        oracle_reconstruct_root(n, &bad, &bad_proof),
                        "n={n} revealed={bad:?} proof of {}",
                        bad_proof.digests.len()
                    );
                }
            }
        }
    }

    #[test]
    fn interior_of_tiny_trees_is_empty() {
        assert_eq!(interior_len(0), 0);
        assert_eq!(interior_len(1), 0);
        assert!(interior_levels(&[]).is_empty());
        assert!(interior_levels(&[leaf_digest(0)]).is_empty());
        // 7 leaves: 4 + 2 + 1 interior nodes (Figure 8's shape).
        assert_eq!(interior_len(7), 7);
        assert_eq!(
            prove_with(0, &[], |_, _| Digest::ZERO),
            MerkleProof::default()
        );
    }

    #[test]
    fn proof_size_bytes() {
        let t = MerkleTree::from_leaves(&leaves(8));
        let proof = t.prove(&[0]);
        assert_eq!(proof.size_bytes(), proof.digests.len() * 16);
    }
}
