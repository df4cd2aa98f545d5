//! SHA-256 compression on the x86-64 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`).
//!
//! This file holds the crate's only `unsafe`: the kernel needs
//! `#[target_feature]` code paths and 16-byte vector loads and stores,
//! for which safe Rust has no operation. `try_compress` is the one safe
//! entry point; it runs the kernel only after the CPU has reported every
//! feature the kernel enables. The scalar `compress_scalar` is both the
//! fallback and the oracle the tests compare this kernel against.
//!
//! The instructions keep the working variables as two lane pairs,
//! `ABEF` and `CDGH`, and advance them two rounds per `sha256rnds2`.

#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Compress `blocks` into `state` with the SHA extensions when this CPU
/// has them. Returns `false`, with `state` untouched, when it does not.
pub(super) fn try_compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3"))
    {
        return false;
    }
    // SAFETY: `compress` enables sha, sse2, ssse3 and sse4.1. The first
    // three were detected just above and sse2 is part of the x86-64
    // baseline, so every instruction it may emit exists on this CPU.
    unsafe { compress(state, blocks) };
    true
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
// stores in `load_words`, `load_be` and `store_words`, each of which
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

    let (k, _) = K.as_chunks::<4>();
    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w0 = load_be(block, 0);
        let mut w1 = load_be(block, 1);
        let mut w2 = load_be(block, 2);
        let mut w3 = load_be(block, 3);
        four_rounds(&mut abef, &mut cdgh, w0, &k[0]);
        four_rounds(&mut abef, &mut cdgh, w1, &k[1]);
        four_rounds(&mut abef, &mut cdgh, w2, &k[2]);
        four_rounds(&mut abef, &mut cdgh, w3, &k[3]);
        // Rounds 16..64: each quad of schedule words overwrites the
        // quad sixteen words older, so four registers carry it all.
        for kq in k[4..].chunks_exact(4) {
            w0 = schedule(w0, w1, w2, w3);
            four_rounds(&mut abef, &mut cdgh, w0, &kq[0]);
            w1 = schedule(w1, w2, w3, w0);
            four_rounds(&mut abef, &mut cdgh, w1, &kq[1]);
            w2 = schedule(w2, w3, w0, w1);
            four_rounds(&mut abef, &mut cdgh, w2, &kq[2]);
            w3 = schedule(w3, w0, w1, w2);
            four_rounds(&mut abef, &mut cdgh, w3, &kq[3]);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    store_words(&mut halves[0], _mm_blend_epi16(feba, dchg, 0xF0));
    store_words(&mut halves[1], _mm_alignr_epi8(dchg, feba, 8));
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
    let bytes = &block[16 * q..16 * q + 16];
    // SAFETY: `bytes` is 16 initialized bytes (the slice above is
    // bounds-checked) and `loadu` has no alignment requirement.
    let v = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    _mm_shuffle_epi8(v, byte_swap)
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
