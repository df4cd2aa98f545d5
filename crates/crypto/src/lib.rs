//! # authsearch-crypto
//!
//! From-scratch cryptographic substrate for the authenticated text-search
//! framework of Pang & Mouratidis (VLDB 2008):
//!
//! * [`Digest`] — the 128-bit one-way hash used everywhere (truncated
//!   SHA-256; the paper's Table 1 fixes |h| = 128 bits).
//! * `sha256` — streaming SHA-256 from FIPS 180-4 with
//!   standard test vectors; the x86-64 SHA extensions compress blocks
//!   when the CPU has them, with a portable scalar fallback that also
//!   serves as the test oracle. The kernel's module is the one place in
//!   this crate allowed to use `unsafe`.
//! * [`bignum::BigUint`] — arbitrary-precision arithmetic (Knuth Algorithm D
//!   division, windowed modular exponentiation in Montgomery form via
//!   [`bignum::Montgomery`], Miller–Rabin primes).
//! * [`RsaPrivateKey`] / [`RsaPublicKey`] — PKCS#1 v1.5 signatures over SHA-256 with CRT signing
//!   (Table 1: |sign| = 1024 bits).
//! * [`merkle`] — Merkle hash trees with multi-leaf proofs, matching the
//!   paper's odd-node-promotion tree shape (Figures 3, 7, 8).
//! * [`chain`] — the chain-of-MHTs construction of §3.3.2 (Figures 9, 12).
//!
//! Nothing here depends on the IR layers; the crate is reusable as a small
//! general-purpose authenticated-data-structure toolkit.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bignum;
pub mod chain;
pub mod counters;
pub mod digest;
pub mod keys;
pub mod merkle;
pub(crate) mod rsa;
pub(crate) mod sha256;

pub use chain::{reconstruct_head, ChainMht, ChainPrefixProof};
pub use digest::{Digest, DIGEST_LEN};
pub use merkle::{reconstruct_root, MerkleProof, MerkleTree};
pub use rsa::{RsaError, RsaPrivateKey, RsaPublicKey}; // lint:allow(unused-pub): `RsaError` is reached only as the error of `sign` and `verify`

#[cfg(test)]
mod integration_tests {
    use super::*;
    use keys::{cached_keypair, TEST_KEY_BITS};

    #[test]
    fn signed_merkle_root_end_to_end() {
        // The owner-side flow in miniature: build a tree, sign its root,
        // later authenticate one leaf against the signed root.
        let key = cached_keypair(TEST_KEY_BITS);
        let leaves: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 4]).collect();
        let tree = MerkleTree::from_leaves(&leaves);
        let sig = key.sign(tree.root().as_bytes()).unwrap();

        // User side: leaf 3 + proof + signature.
        let proof = tree.prove(&[3]);
        let leaf_digest = Digest::leaf(&leaves[3]);
        let root = reconstruct_root(10, &[(3, leaf_digest)], &proof).unwrap();
        key.public_key().verify(root.as_bytes(), &sig).unwrap();
    }

    #[test]
    fn signed_chain_head_end_to_end() {
        let key = cached_keypair(TEST_KEY_BITS);
        let leaves: Vec<Digest> = (0..40u32).map(|i| Digest::leaf(&i.to_le_bytes())).collect();
        let chain = ChainMht::build(leaves.clone(), 8);
        let sig = key.sign(chain.head_digest().as_bytes()).unwrap();

        let k = 11;
        let proof = chain.prove_prefix(k);
        let head = reconstruct_head(40, 8, &leaves[..k], &proof).unwrap();
        key.public_key().verify(head.as_bytes(), &sig).unwrap();
    }
}
