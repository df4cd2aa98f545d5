//! The 128-bit digest type used throughout the authentication structures.
//!
//! The paper (Table 1) fixes the digest size |h| at 128 bits. We obtain
//! 128-bit digests by truncating SHA-256 output, which preserves one-wayness
//! and collision resistance at the 64-bit security level — the same level the
//! paper assumes for MD5-sized digests — while avoiding MD5's known breaks.

use crate::sha256::Sha256;
use std::fmt;

/// Size of a digest in bytes (128 bits, per Table 1 of the paper).
pub const DIGEST_LEN: usize = 16;

/// A 128-bit one-way hash digest.
///
/// Internal nodes of every Merkle hash tree, block digests of chain-MHTs,
/// and document digests all carry this type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest; used as a sentinel for "no successor block".
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Hash an arbitrary byte string into a 128-bit digest
    /// (SHA-256 truncated to the first 16 bytes).
    pub fn hash(data: &[u8]) -> Digest {
        let full = Sha256::digest(data);
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(&full[..DIGEST_LEN]);
        Digest(out)
    }

    /// Hash the concatenation of several byte strings without materializing
    /// the concatenation (`h(a | b | ...)` in the paper's notation).
    pub fn hash_parts(parts: &[&[u8]]) -> Digest {
        let mut hasher = Sha256::new();
        for p in parts {
            hasher.update(p);
        }
        let full = hasher.finalize();
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(&full[..DIGEST_LEN]);
        Digest(out)
    }

    /// `h(left | right)` — the Merkle internal-node combiner. The 32-byte
    /// concatenation is built on the stack and hashed in one compression.
    pub fn combine(left: &Digest, right: &Digest) -> Digest {
        let mut pair = [0u8; 2 * DIGEST_LEN];
        pair[..DIGEST_LEN].copy_from_slice(&left.0);
        pair[DIGEST_LEN..].copy_from_slice(&right.0);
        Digest::hash(&pair)
    }

    /// Raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Parse from a byte slice; returns `None` when the length is wrong.
    pub fn from_slice(bytes: &[u8]) -> Option<Digest> {
        if bytes.len() != DIGEST_LEN {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(bytes);
        Some(Digest(out))
    }

    /// Hex representation (for debugging and golden tests).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(Digest::hash(b"abc"), Digest::hash(b"abc"));
        assert_ne!(Digest::hash(b"abc"), Digest::hash(b"abd"));
    }

    #[test]
    fn hash_parts_matches_concatenation() {
        let cat = Digest::hash(b"hello world");
        let parts = Digest::hash_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(cat, parts);
    }

    #[test]
    fn combine_matches_hash_parts_over_random_pairs() {
        let mut rng = StdRng::seed_from_u64(0xc0b1);
        for _ in 0..1000 {
            let (mut l, mut r) = ([0u8; DIGEST_LEN], [0u8; DIGEST_LEN]);
            rng.fill_bytes(&mut l);
            rng.fill_bytes(&mut r);
            let (l, r) = (Digest(l), Digest(r));
            assert_eq!(Digest::combine(&l, &r), Digest::hash_parts(&[&l.0, &r.0]));
        }
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Digest::hash(b"a");
        let b = Digest::hash(b"b");
        assert_ne!(Digest::combine(&a, &b), Digest::combine(&b, &a));
    }

    #[test]
    fn truncation_matches_sha256_prefix() {
        let full = Sha256::digest(b"truncate me");
        let d = Digest::hash(b"truncate me");
        assert_eq!(&full[..16], d.as_bytes());
    }

    #[test]
    fn from_slice_roundtrip() {
        let d = Digest::hash(b"roundtrip");
        assert_eq!(Digest::from_slice(d.as_bytes()), Some(d));
        assert_eq!(Digest::from_slice(&[0u8; 5]), None);
        assert_eq!(Digest::from_slice(&[0u8; 32]), None);
    }

    #[test]
    fn hex_is_32_chars() {
        assert_eq!(Digest::hash(b"x").to_hex().len(), 32);
    }

    #[test]
    fn zero_sentinel() {
        assert_eq!(Digest::ZERO.as_bytes(), &[0u8; 16]);
        assert_ne!(Digest::hash(b""), Digest::ZERO);
    }
}
