//! Buddy inclusion (paper §3.3.2).
//!
//! MHT leaves are smaller than digests (8-byte `⟨t, w⟩` pairs or 4-byte
//! document ids vs 16-byte digests), so below a certain subtree size it is
//! cheaper to ship the *leaves themselves* than the covering digests.
//! The paper partitions the leaves of every MHT into groups of `2^g`,
//! where `g` is the largest integer with `(2^g − 1)·|leaf| ≤ g·|h|`;
//! whenever a leaf is required in the VO, its whole group comes along and
//! the group's internal digests are dropped.

/// Largest buddy group size `2^g` for the given leaf and digest sizes.
///
/// Paper examples: `|leaf| = 8, |h| = 16` → g = 2, groups of 4;
/// `|leaf| = 4, |h| = 16` → g = 4, groups of 16.
pub fn buddy_group_size(leaf_bytes: usize, digest_bytes: usize) -> usize {
    assert!(leaf_bytes > 0);
    let mut g = 0usize;
    while ((1usize << (g + 1)) - 1) * leaf_bytes <= (g + 1) * digest_bytes {
        g += 1;
    }
    1 << g
}

/// Expand a sorted set of required leaf positions to whole buddy groups
/// (clamped to `n` leaves). Returns sorted, deduplicated positions. The
/// paper applies it to its document-MHTs; here those are a priced model
/// (`crates/bench`), and the doc-order proofs reveal the least set.
pub fn expand_buddies(required: &[usize], n: usize, group: usize) -> Vec<usize> {
    debug_assert!(required.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::with_capacity(required.len() * group);
    let mut last_group = usize::MAX;
    for &pos in required {
        let start = (pos / group) * group;
        if start == last_group {
            continue;
        }
        last_group = start;
        for p in start..(start + group).min(n) {
            out.push(p);
        }
    }
    out
}

/// Expand a contiguous prefix `0..k` to a buddy-group boundary within an
/// `n`-leaf tree — the special case used for inverted-list prefixes
/// (groups align to the leaf layer's origin).
pub(crate) fn expand_prefix(k: usize, n: usize, group: usize) -> usize {
    if k == 0 {
        0
    } else {
        (k.div_ceil(group) * group).min(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_group_sizes() {
        // §3.3.2: |h| = 16 bytes, |leaf| = 8 bytes → g = 2, groups of 4.
        assert_eq!(buddy_group_size(8, 16), 4);
        // doc-id leaves: 4 bytes → g = 4, groups of 16.
        assert_eq!(buddy_group_size(4, 16), 16);
    }

    #[test]
    fn degenerate_sizes() {
        // Leaves as large as digests: (2^1 - 1)·16 = 16 ≤ 1·16 → g = 1.
        assert_eq!(buddy_group_size(16, 16), 2);
        // Leaves much larger than digests: no grouping pays off.
        assert_eq!(buddy_group_size(64, 16), 1);
    }

    #[test]
    fn expand_covers_whole_groups() {
        // Figure 8's example: leaf 2 required, group of 4 → leaves 0..4.
        assert_eq!(expand_buddies(&[2], 7, 4), vec![0, 1, 2, 3]);
        // Leaf 5 in the second (truncated) group of a 7-leaf tree.
        assert_eq!(expand_buddies(&[5], 7, 4), vec![4, 5, 6]);
    }

    #[test]
    fn expand_merges_same_group() {
        assert_eq!(expand_buddies(&[1, 2], 8, 4), vec![0, 1, 2, 3]);
        assert_eq!(expand_buddies(&[1, 6], 8, 4), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn expand_prefix_rounds_up() {
        assert_eq!(expand_prefix(0, 100, 4), 0);
        assert_eq!(expand_prefix(1, 100, 4), 4);
        assert_eq!(expand_prefix(4, 100, 4), 4);
        assert_eq!(expand_prefix(5, 100, 4), 8);
        assert_eq!(expand_prefix(99, 100, 4), 100); // clamped
    }

    #[test]
    fn group_of_one_is_identity() {
        assert_eq!(expand_buddies(&[3, 9], 12, 1), vec![3, 9]);
        assert_eq!(expand_prefix(7, 12, 1), 7);
    }
}
