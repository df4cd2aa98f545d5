//! The 128-bit digest type used throughout the authentication structures.
//!
//! The paper (Table 1) fixes the digest size |h| at 128 bits. We obtain
//! 128-bit digests by truncating SHA-256 output, which preserves one-wayness
//! and collision resistance at the 64-bit security level — the same level the
//! paper assumes for MD5-sized digests — while avoiding MD5's known breaks.
//!
//! The Merkle hashes take the fastest path the CPU offers. On x86-64 with
//! the SHA extensions, [`Digest::combine`] and the 4-, 8- and 9-byte
//! forms of [`Digest::leaf`] (a TRA term-list leaf, a TNRA leaf, a
//! doc-order leaf) run one-block kernels that build the message in
//! registers. Every
//! other message, and every message on other CPUs, is padded in one
//! stack block when it fits (at most 55 bytes with its prefix) and
//! streamed otherwise. All paths compute the same SHA-256, so no digest
//! depends on the CPU.

use crate::sha256::Sha256;
#[cfg(target_arch = "x86_64")]
use crate::sha256::ShaNi;
use std::fmt;

/// Size of a digest in bytes (128 bits, per Table 1 of the paper).
pub const DIGEST_LEN: usize = 16;

/// First byte hashed into every Merkle leaf digest ([`Digest::leaf`]).
const LEAF_PREFIX: u8 = 0x00;

/// First byte hashed into every Merkle interior digest
/// ([`Digest::combine`]).
const INTERIOR_PREFIX: u8 = 0x01;

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

    /// `h(0x00 | data)` — the digest of a Merkle leaf. The prefix puts
    /// every leaf in a different hash domain from every interior node
    /// ([`Digest::combine`]), whatever the leaf's encoding, so no leaf
    /// can stand in for an interior node or the other way round
    /// (RFC 6962 §2.1). A leaf of at most 54 bytes is one compression.
    pub fn leaf(data: &[u8]) -> Digest {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ShaNi::get() {
            if matches!(data.len(), 4 | 8 | 9) {
                crate::counters::compressed(1);
            }
            if let Ok(data) = <&[u8; 4]>::try_from(data) {
                return Digest(ni.short(LEAF_PREFIX, data));
            }
            if let Ok(data) = <&[u8; 8]>::try_from(data) {
                return Digest(ni.short(LEAF_PREFIX, data));
            }
            if let Ok(data) = <&[u8; 9]>::try_from(data) {
                return Digest(ni.short(LEAF_PREFIX, data));
            }
        }
        Digest::one_block(LEAF_PREFIX, &[data])
            .unwrap_or_else(|| Digest::hash_parts(&[&[LEAF_PREFIX], data]))
    }

    /// `h(0x01 | left | right)` — the Merkle interior-node combiner, in
    /// the interior hash domain (see [`Digest::leaf`]). One compression.
    pub fn combine(left: &Digest, right: &Digest) -> Digest {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ShaNi::get() {
            crate::counters::compressed(1);
            return Digest(ni.node(INTERIOR_PREFIX, &left.0, &right.0));
        }
        Digest::one_block(INTERIOR_PREFIX, &[&left.0, &right.0]).expect("33 bytes fit one block")
    }

    /// `h(prefix | parts…)` when the input is at most 55 bytes: padded in
    /// place in one stack block and compressed once. `None` otherwise.
    /// The portable one-block path: every short message without a
    /// register-built kernel, and every one-block message off SHA-NI.
    fn one_block(prefix: u8, parts: &[&[u8]]) -> Option<Digest> {
        let mut block = [0u8; 64];
        block[0] = prefix;
        let mut len = 1;
        for part in parts {
            block.get_mut(len..len + part.len())?.copy_from_slice(part);
            len += part.len();
        }
        if len > 55 {
            return None;
        }
        block[len] = 0x80;
        block[56..].copy_from_slice(&(8 * len as u64).to_be_bytes());
        let full = crate::sha256::digest_padded(&block);
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(&full[..DIGEST_LEN]);
        Some(Digest(out))
    }

    /// Raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
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
impl Digest {
    /// Parse from a byte slice; returns `None` when the length is wrong.
    fn from_slice(bytes: &[u8]) -> Option<Digest> {
        if bytes.len() != DIGEST_LEN {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(bytes);
        Some(Digest(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::scalar_digest;
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
            assert_eq!(
                Digest::combine(&l, &r),
                Digest::hash_parts(&[&[INTERIOR_PREFIX], &l.0, &r.0])
            );
        }
    }

    #[test]
    fn leaf_matches_hash_parts_for_every_length() {
        // The stack path (up to 63 bytes) and the streaming path agree
        // on both sides of the one-block boundary.
        let data: Vec<u8> = (0..200u8).collect();
        for len in 0..data.len() {
            let bytes = &data[..len];
            assert_eq!(
                Digest::leaf(bytes),
                Digest::hash_parts(&[&[LEAF_PREFIX], bytes]),
                "len={len}"
            );
        }
    }

    #[test]
    fn every_one_block_path_matches_the_scalar_oracle() {
        // `combine` and the 4-, 8- and 9-byte leaves run the register-built
        // kernels on SHA-NI hosts; `one_block` is the portable path they
        // fall back to elsewhere, called directly here so that it stays
        // tested on every host. All must equal the scalar compression.
        let oracle = |msg: &[u8]| Digest::from_slice(&scalar_digest(msg)[..DIGEST_LEN]);
        let mut rng = StdRng::seed_from_u64(0x0b1c);
        for _ in 0..500 {
            let (mut l, mut r) = ([0u8; DIGEST_LEN], [0u8; DIGEST_LEN]);
            rng.fill_bytes(&mut l);
            rng.fill_bytes(&mut r);
            let want = oracle(&[&[INTERIOR_PREFIX][..], &l, &r].concat());
            assert_eq!(Some(Digest::combine(&Digest(l), &Digest(r))), want);
            assert_eq!(Digest::one_block(INTERIOR_PREFIX, &[&l, &r]), want);
        }
        for len in 0..=54 {
            for _ in 0..20 {
                let mut data = vec![0u8; len];
                rng.fill_bytes(&mut data);
                let want = oracle(&[&[LEAF_PREFIX][..], &data].concat());
                assert_eq!(Some(Digest::leaf(&data)), want, "len={len}");
                assert_eq!(Digest::one_block(LEAF_PREFIX, &[&data]), want, "len={len}");
            }
        }
        assert_eq!(Digest::one_block(LEAF_PREFIX, &[&[0u8; 55]]), None);
    }

    #[test]
    fn leaf_and_interior_domains_never_meet() {
        // The 32 bytes of an interior node's children, hashed as a leaf,
        // are not that interior node: the prefixes differ.
        let (l, r) = (Digest::hash(b"l"), Digest::hash(b"r"));
        let mut children = [0u8; 2 * DIGEST_LEN];
        children[..DIGEST_LEN].copy_from_slice(&l.0);
        children[DIGEST_LEN..].copy_from_slice(&r.0);
        assert_ne!(Digest::leaf(&children), Digest::combine(&l, &r));
        assert_ne!(Digest::leaf(&children), Digest::hash(&children));
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
