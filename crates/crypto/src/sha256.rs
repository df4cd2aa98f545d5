//! SHA-256, implemented from FIPS 180-4.
//!
//! This is the one-way hash `h(.)` underlying every digest in the
//! authentication framework (truncated to 128 bits by [`crate::Digest`]).
//! The implementation is a constant-memory streaming compressor; test
//! vectors come from FIPS 180-4 and NIST CAVP.
//!
//! On x86-64 CPUs with the SHA extensions the kernels in
//! `sha256/shani.rs` do the compressing, elsewhere the portable
//! `compress_scalar`; the CPU is asked once per process. Both compute
//! the same function, so the choice never changes a digest; the scalar
//! code is kept as the oracle the kernels are tested against.
//!
//! Every message the streaming hasher sees goes through
//! `compress_blocks`. Whole blocks reach the compressor straight from
//! the caller's slice, and the final padded block (or two) is built on
//! the stack, so a message of at most 55 bytes costs exactly one
//! compression. The Merkle shapes [`crate::Digest`] hashes most (an
//! interior node, a 4- or 8-byte leaf) skip this module's padding
//! altogether: the kernels' one-block entries build those messages in
//! registers.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani;

#[cfg(target_arch = "x86_64")]
pub(crate) use shani::ShaNi;

/// Per-round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub(crate) struct Sha256 {
    state: [u32; 8],
    /// Partially filled message block.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes (SHA-256 caps at 2^61 bytes; plenty).
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: `Sha256::digest(msg)` returns the 32-byte hash.
    ///
    /// Hashes the whole blocks of `data` in place and pads only the
    /// tail, so nothing passes through the streaming buffer; at most 55
    /// bytes is a single compression.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let (blocks, tail) = data.as_chunks::<64>();
        let mut state = H0;
        compress_blocks(&mut state, blocks);
        finish(state, tail, data.len() as u64)
    }

    /// Absorb more message bytes.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Top up a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }
        // Whole blocks straight from the input, in one kernel call.
        let (blocks, tail) = data.as_chunks::<64>();
        compress_blocks(&mut self.state, blocks);
        // Stash the tail.
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finish and return the 32-byte digest.
    pub(crate) fn finalize(self) -> [u8; 32] {
        finish(self.state, &self.buffer[..self.buffer_len], self.total_len)
    }
}

/// Pad the final partial block `tail` (under 64 bytes) of a
/// `total_len`-byte message and compress it: `0x80`, zeros to 56 mod 64,
/// then the 64-bit big-endian bit length (FIPS 180-4 §5.1.1). A tail of
/// up to 55 bytes fits one block; a longer one spills into a second.
fn finish(mut state: [u32; 8], tail: &[u8], total_len: u64) -> [u8; 32] {
    let mut pad = [[0u8; 64]; 2];
    let blocks = if tail.len() < 56 { 1 } else { 2 };
    let flat = pad.as_flattened_mut();
    flat[..tail.len()].copy_from_slice(tail);
    flat[tail.len()] = 0x80;
    flat[64 * blocks - 8..64 * blocks].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress_blocks(&mut state, &pad[..blocks]);
    state_bytes(state)
}

/// SHA-256 of a message of at most 55 bytes that the caller has laid
/// out in `block` already padded (`0x80`, zeros, the big-endian bit
/// length): one compression and no copy of the message.
pub(crate) fn digest_padded(block: &[u8; 64]) -> [u8; 32] {
    let mut state = H0;
    compress_blocks(&mut state, std::slice::from_ref(block));
    state_bytes(state)
}

/// The big-endian bytes of a final SHA-256 state.
fn state_bytes(state: [u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compress whole 64-byte blocks into `state`: the SHA-NI kernel when the
/// CPU has it, the scalar code otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    if blocks.is_empty() {
        return;
    }
    crate::counters::compressed(blocks.len());
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ShaNi::get() {
        ni.compress(state, blocks);
        return;
    }
    compress_scalar(state, blocks);
}

/// The FIPS 180-4 compression function, one 512-bit block at a time, in
/// portable Rust: the fallback off x86-64 or without the SHA extensions,
/// and the oracle the kernel is tested against.
pub(crate) fn compress_scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = big_s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The oracle: byte-at-a-time padding into an owned buffer, then the
/// scalar compression only — no stack padding, no dispatch.
#[cfg(test)]
pub(crate) fn scalar_digest(data: &[u8]) -> [u8; 32] {
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress_scalar(&mut state, msg.as_chunks::<64>().0);
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        // Feed in awkward chunk sizes crossing block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "chunk={chunk}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the padding boundary (55/56/64) are the classic
        // off-by-one traps for Merkle-Damgård padding.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "len={len}");
        }
    }

    #[test]
    fn reference_vectors_at_padding_boundaries() {
        // Digests of bytes `(7i + 3) mod 256` from an independent
        // SHA-256 implementation, at the lengths where the final padding
        // switches between one and two blocks.
        let cases = [
            (
                55,
                "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
            ),
            (
                56,
                "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
            ),
            (
                63,
                "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
            ),
            (
                64,
                "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
            ),
            (
                119,
                "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
            ),
            (
                120,
                "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
            ),
        ];
        for (len, want) in cases {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(hex(&Sha256::digest(&data)), want, "len={len}");
            assert_eq!(hex(&scalar_digest(&data)), want, "scalar len={len}");
        }
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        data
    }

    #[test]
    fn scalar_oracle_matches_fips_vectors() {
        assert_eq!(
            hex(&scalar_digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&scalar_digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn dispatched_hashing_matches_scalar_for_every_length_and_chunking() {
        // On a CPU with the SHA extensions this runs the kernel against
        // the scalar oracle; elsewhere it still checks the padding paths.
        let mut rng = StdRng::seed_from_u64(0x5eed_0256);
        for len in 0..=1024usize {
            let data = random_bytes(&mut rng, len);
            let want = scalar_digest(&data);
            assert_eq!(Sha256::digest(&data), want, "one-shot len={len}");
            for _ in 0..2 {
                let mut h = Sha256::new();
                let mut rest = data.as_slice();
                while !rest.is_empty() {
                    let take = rng.gen_range(0..=rest.len().min(200));
                    let (chunk, tail) = rest.split_at(take);
                    h.update(chunk);
                    rest = tail;
                }
                assert_eq!(h.finalize(), want, "streaming len={len}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_matches_scalar_compression_over_random_block_runs() {
        let mut rng = StdRng::seed_from_u64(0x5eed_4e49);
        for _ in 0..200 {
            let nblocks = rng.gen_range(1..=17usize);
            let data = random_bytes(&mut rng, 64 * nblocks);
            let blocks = data.as_chunks::<64>().0;
            let start: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let mut want = start;
            compress_scalar(&mut want, blocks);
            // Split the run at a random block so state is carried across
            // kernel calls as well as within one.
            let cut = rng.gen_range(0..=nblocks);
            let mut got = start;
            let Some(ni) = ShaNi::get() else {
                return; // no SHA extensions here: scalar is the only path
            };
            ni.compress(&mut got, &blocks[..cut]);
            ni.compress(&mut got, &blocks[cut..]);
            assert_eq!(got, want, "blocks={nblocks} cut={cut}");
        }
    }

    /// `ShaNi::short::<N>` against the scalar oracle over random leaves
    /// and prefixes.
    #[cfg(target_arch = "x86_64")]
    fn check_short<const N: usize>(ni: ShaNi, rng: &mut StdRng) {
        for _ in 0..64 {
            let mut data = [0u8; N];
            rng.fill_bytes(&mut data);
            let prefix: u8 = rng.gen();
            let mut msg = vec![prefix];
            msg.extend_from_slice(&data);
            let want = scalar_digest(&msg);
            assert_eq!(ni.short(prefix, &data), want[..16], "len={N} msg={msg:?}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn one_block_kernels_match_scalar_compression() {
        let Some(ni) = ShaNi::get() else {
            return; // no SHA extensions here: scalar is the only path
        };
        let mut rng = StdRng::seed_from_u64(0x5eed_0b1c);
        // Interior nodes: `prefix | left | right`, 33 bytes.
        for _ in 0..1000 {
            let (mut left, mut right) = ([0u8; 16], [0u8; 16]);
            rng.fill_bytes(&mut left);
            rng.fill_bytes(&mut right);
            let prefix: u8 = rng.gen();
            let msg = [&[prefix][..], &left, &right].concat();
            let want = scalar_digest(&msg);
            assert_eq!(ni.node(prefix, &left, &right), want[..16], "msg={msg:?}");
        }
        // Short leaves: `prefix | data` at every length the kernel takes,
        // 4 and 8 being the ones `Digest::leaf` sends it.
        let checks: [fn(ShaNi, &mut StdRng); 15] = [
            check_short::<0>,
            check_short::<1>,
            check_short::<2>,
            check_short::<3>,
            check_short::<4>,
            check_short::<5>,
            check_short::<6>,
            check_short::<7>,
            check_short::<8>,
            check_short::<9>,
            check_short::<10>,
            check_short::<11>,
            check_short::<12>,
            check_short::<13>,
            check_short::<14>,
        ];
        for check in checks {
            check(ni, &mut rng);
        }
    }

    #[test]
    fn one_block_path_matches_streaming_path() {
        // ≤ 55 bytes pads one stack block in `digest`; 56..=63 spill into
        // a second; 64 is one whole block plus a padding block.
        let mut rng = StdRng::seed_from_u64(0x5eed_0001);
        for len in 0..=128usize {
            let data = random_bytes(&mut rng, len);
            let mut byte_at_a_time = Sha256::new();
            for b in &data {
                byte_at_a_time.update(std::slice::from_ref(b));
            }
            let mut whole = Sha256::new();
            whole.update(&data);
            let one_shot = Sha256::digest(&data);
            assert_eq!(one_shot, whole.finalize(), "len={len}");
            assert_eq!(one_shot, byte_at_a_time.finalize(), "len={len}");
        }
    }
}
