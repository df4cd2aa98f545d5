//! SHA-256 compression on the x86-64 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`).
//!
//! This file holds the crate's only `unsafe`: the kernels need
//! `#[target_feature]` code paths and 16-byte vector loads and stores,
//! for which safe Rust has no operation. [`ShaNi`] is the one safe door:
//! a value of it exists only once the CPU has reported every feature the
//! kernels enable (detected once per process), so its methods may run
//! them. The scalar `compress_scalar` is both the fallback and the oracle
//! the tests compare these kernels against.
//!
//! Two kinds of entry:
//! * [`ShaNi::compress`] folds whole caller-owned blocks into a running
//!   state, for every message the streaming hasher sees.
//! * The one-block entries [`ShaNi::node`] and [`ShaNi::short`] hash the
//!   shapes Merkle trees hash most — a prefix byte and two 16-byte
//!   digests, or a prefix byte and a short leaf — from the initial hash
//!   value. They lay the padded message out in registers rather than in
//!   a stack block (a vector reload of bytes just stored piecewise stalls
//!   on store forwarding) and write only the 16 bytes a
//!   [`crate::Digest`] keeps.
//!
//! Both run one kernel body, `rounds`.
//!
//! The instructions keep the working variables as two lane pairs,
//! `ABEF` and `CDGH`, and advance them two rounds per `sha256rnds2`.

#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_cvtsi32_si128, _mm_loadu_si128,
    _mm_or_si128, _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32,
    _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
    _mm_slli_si128, _mm_srli_si128, _mm_storeu_si128, _mm_unpackhi_epi64,
};
use std::sync::OnceLock;

use super::{H0, K};

/// Proof that this CPU has the `sha`, `sse2`, `ssse3` and `sse4.1`
/// features: the only way to get one is [`ShaNi::get`], so holding one
/// makes every kernel below sound to run.
#[derive(Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// The kernels, when this CPU has the SHA extensions. The CPU is asked
    /// once per process; later calls read the cached verdict.
    #[inline]
    pub(crate) fn get() -> Option<ShaNi> {
        static HAS_SHA_NI: OnceLock<bool> = OnceLock::new();
        let has = *HAS_SHA_NI.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse4.1")
                && is_x86_feature_detected!("ssse3")
        });
        has.then_some(ShaNi(()))
    }

    /// Compress `blocks` into `state`.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: `compress` enables sha, sse2, ssse3 and sse4.1. `self`
        // exists only after `get` detected the first three, and sse2 is
        // part of the x86-64 baseline, so every instruction it may emit
        // exists on this CPU.
        unsafe { compress(state, blocks) }
    }

    /// The first 16 bytes of SHA-256(`prefix | left | right`): a 33-byte
    /// message, one block.
    #[inline]
    pub(crate) fn node(self, prefix: u8, left: &[u8; 16], right: &[u8; 16]) -> [u8; 16] {
        // SAFETY: `node` enables sha, sse2, ssse3 and sse4.1, which
        // `self` proves this CPU has (see `compress`).
        unsafe { node(prefix, left, right) }
    }

    /// The first 16 bytes of SHA-256(`prefix | data`) for a leaf of at
    /// most 14 bytes, so that the prefix, the leaf and the `0x80`
    /// padding byte fill at most the first 16 bytes of the block.
    #[inline]
    pub(crate) fn short<const N: usize>(self, prefix: u8, data: &[u8; N]) -> [u8; 16] {
        // SAFETY: `short` enables sha, sse2, ssse3 and sse4.1, which
        // `self` proves this CPU has (see `compress`).
        unsafe { short(prefix, data) }
    }
}

/// The FIPS 180-4 compression function over each block in turn, with
/// the state held in two vector registers across the whole run.
///
/// # Safety
///
/// The running CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
/// target features.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
// SAFETY: the body's only unsafe operations are the 16-byte loads and
// stores in `load_words`, `load_bytes` and `store_words`, each of which
// takes a reference to exactly 16 bytes; the caller's obligation is
// only the CPU features.
unsafe fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let (halves, _) = state.as_chunks_mut::<4>();
    let dcba = load_words(&halves[0]);
    let hgfe = load_words(&halves[1]);
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks {
        let w = [0, 1, 2, 3].map(|q| load_be(block, q));
        rounds(&mut abef, &mut cdgh, w);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    store_words(&mut halves[0], _mm_blend_epi16(feba, dchg, 0xF0));
    store_words(&mut halves[1], _mm_alignr_epi8(dchg, feba, 8));
}

/// The one-block message `prefix | left | right` (33 bytes, 264 bits),
/// laid out from two 16-byte loads.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn node(prefix: u8, left: &[u8; 16], right: &[u8; 16]) -> [u8; 16] {
    let (l, r) = (load_bytes(left), load_bytes(right));
    // Message bytes 0..16: the prefix, then `left[..15]`.
    let b0 = _mm_or_si128(_mm_slli_si128(l, 1), _mm_cvtsi32_si128(i32::from(prefix)));
    // Bytes 16..32: `left[15]`, then `right[..15]`.
    let b1 = _mm_alignr_epi8(r, l, 15);
    // Bytes 32..48: `right[15]`, the `0x80` end marker, zeros.
    let b2 = _mm_or_si128(_mm_srli_si128(r, 15), _mm_cvtsi32_si128(0x80 << 8));
    first_block([
        bytes_to_words(b0),
        bytes_to_words(b1),
        bytes_to_words(b2),
        length_words(33),
    ])
}

/// The one-block message `prefix | data`, `N ≤ 14`, built in
/// general-purpose registers and moved over in one pair.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn short<const N: usize>(prefix: u8, data: &[u8; N]) -> [u8; 16] {
    // The message length, checked at compile time to leave the prefix,
    // the leaf and the end marker inside the first 16 bytes.
    let len = const {
        assert!(N <= 14, "prefix, leaf and end marker must fit 16 bytes");
        N as u8 + 1
    };
    // The first 16 message bytes as one big-endian integer: prefix, leaf,
    // `0x80`, zeros.
    let mut head = u128::from(prefix);
    for &b in data {
        head = head << 8 | u128::from(b);
    }
    head = (head << 8 | 0x80) << (8 * (14 - N));
    let zero = _mm_setzero_si128();
    first_block([u128_words(head), zero, zero, length_words(len)])
}

/// SHA-256 of one already-padded block from the initial hash value,
/// truncated to its first 16 bytes (`A B C D`, big-endian).
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn first_block(w: [__m128i; 4]) -> [u8; 16] {
    // H0 in the kernel's lane order (see `compress`'s shuffles).
    let h = H0.map(|x| x as i32);
    let mut abef = _mm_set_epi32(h[0], h[1], h[4], h[5]);
    let mut cdgh = _mm_set_epi32(h[2], h[3], h[6], h[7]);
    rounds(&mut abef, &mut cdgh, w);
    // `D C` from CDGH's high half and `B A` from ABEF's, then every byte
    // reversed: `A B C D` with each word big-endian.
    let dcba = _mm_unpackhi_epi64(cdgh, abef);
    let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut out = [0u8; 16];
    store_bytes(&mut out, _mm_shuffle_epi8(dcba, reverse));
    out
}

/// The 64 rounds of one block on message quads `w`, then the
/// feed-forward of the input state.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
fn rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: [__m128i; 4]) {
    let (abef_in, cdgh_in) = (*abef, *cdgh);
    let [mut w0, mut w1, mut w2, mut w3] = w;
    let (k, _) = K.as_chunks::<4>();
    four_rounds(abef, cdgh, w0, &k[0]);
    four_rounds(abef, cdgh, w1, &k[1]);
    four_rounds(abef, cdgh, w2, &k[2]);
    four_rounds(abef, cdgh, w3, &k[3]);
    // Rounds 16..64: each quad of schedule words overwrites the quad
    // sixteen words older, so four registers carry it all.
    for kq in k[4..].chunks_exact(4) {
        w0 = schedule(w0, w1, w2, w3);
        four_rounds(abef, cdgh, w0, &kq[0]);
        w1 = schedule(w1, w2, w3, w0);
        four_rounds(abef, cdgh, w1, &kq[1]);
        w2 = schedule(w2, w3, w0, w1);
        four_rounds(abef, cdgh, w2, &kq[2]);
        w3 = schedule(w3, w0, w1, w2);
        four_rounds(abef, cdgh, w3, &kq[3]);
    }
    *abef = _mm_add_epi32(*abef, abef_in);
    *cdgh = _mm_add_epi32(*cdgh, cdgh_in);
}

/// Rounds `4q..4q + 4`: message quad `w` plus its round constants `k`.
#[inline]
#[target_feature(enable = "sha,sse2")]
fn four_rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: &[u32; 4]) {
    let wk = _mm_add_epi32(w, load_words(k));
    // Each `sha256rnds2` returns the new ABEF; the old ABEF is the new
    // CDGH, so the two registers trade roles every two rounds.
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Message words `W[t..t+4]` from `W[t-16..t]` (four quads, oldest
/// first): `msg1` adds σ0 of the oldest words, the byte-align supplies
/// `W[t-7]`, and `msg2` adds σ1 of the newest.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(partial, w3)
}

/// Big-endian message words `4q..4q + 4` of `block`.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn load_be(block: &[u8; 64], q: usize) -> __m128i {
    let (quads, _) = block.as_chunks::<16>();
    bytes_to_words(load_bytes(&quads[q]))
}

/// Sixteen message bytes as four big-endian words.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn bytes_to_words(bytes: __m128i) -> __m128i {
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    _mm_shuffle_epi8(bytes, byte_swap)
}

/// The words of `head`, most significant first: `head` read as the
/// big-endian bytes of one message quad.
#[inline]
#[target_feature(enable = "sse2")]
fn u128_words(head: u128) -> __m128i {
    // Lane order is word 0 lowest, so each 64-bit half swaps its words.
    let w01 = ((head >> 64) as u64).rotate_left(32);
    let w23 = (head as u64).rotate_left(32);
    _mm_set_epi64x(w23 as i64, w01 as i64)
}

/// The last quad of a one-block message of `len ≤ 55` bytes: zeros and
/// the bit length (FIPS 180-4 §5.1.1).
#[inline]
#[target_feature(enable = "sse2")]
fn length_words(len: u8) -> __m128i {
    _mm_set_epi32(8 * i32::from(len), 0, 0, 0)
}

#[inline]
#[target_feature(enable = "sse2")]
fn load_bytes(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 initialized bytes and `loadu` has no
    // alignment requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "sse2")]
fn store_bytes(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is 16 writable bytes borrowed exclusively and
    // `storeu` has no alignment requirement.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

#[inline]
#[target_feature(enable = "sse2")]
fn load_words(words: &[u32; 4]) -> __m128i {
    // SAFETY: `words` is 16 initialized bytes and `loadu` has no
    // alignment requirement.
    unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "sse2")]
fn store_words(words: &mut [u32; 4], v: __m128i) {
    // SAFETY: `words` is 16 writable bytes borrowed exclusively, any bit
    // pattern is a valid `u32`, and `storeu` has no alignment
    // requirement.
    unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), v) }
}
