//! Montgomery modular arithmetic (REDC).
//!
//! Every `mul_mod` in the schoolbook path pays a full multiply **plus** a
//! Knuth Algorithm-D division. Montgomery's reduction replaces the
//! division with shifts and adds against a precomputed per-modulus
//! constant: for an odd modulus `n` of `k` 64-bit limbs and `R = 2^(64k)`,
//! values are carried in *Montgomery form* `aR mod n`, where
//!
//! ```text
//! REDC(t) = t · R⁻¹ mod n      (t < n·R)
//! ```
//!
//! costs one schoolbook-size pass over the operand with no quotient
//! estimation at all. A modular exponentiation enters Montgomery form
//! once, performs all of its squarings/multiplications there, and leaves
//! once — which is why RSA sign/verify and Miller–Rabin (the query-serving
//! and key-generation hot paths) run several times faster than with
//! per-step division.
//!
//! Internally the kernel is CIOS (coarsely integrated operand scanning,
//! Koç–Acar–Kaliski): multiply and reduce are fused into one `k+2`-limb
//! accumulator pass per operand limb. Operands in the Montgomery domain
//! are kept **zero-padded to exactly `k` limbs**, so the hot loops run
//! over fixed-length slices (branch-predictable, bounds-check-friendly)
//! and the window exponentiation reuses two scratch buffers for its whole
//! run — zero allocations per squaring/multiply.
//!
//! The context is a pure function of the modulus, so it is precomputed
//! once per key ([`crate::rsa`]) or per primality candidate
//! ([`super::prime`]) and reused across every operation on that modulus.

use super::BigUint;

/// Precomputed Montgomery context for one odd modulus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Montgomery {
    /// The (odd, > 1) modulus `n`.
    n: BigUint,
    /// Limb count `k` of `n`; `R = 2^(64k)`.
    k: usize,
    /// `-n⁻¹ mod 2^64` — the REDC folding constant.
    n0_inv: u64,
    /// `R mod n`, padded to `k` limbs (the Montgomery form of 1).
    one_m: Vec<u64>,
    /// `R² mod n`, padded to `k` limbs (converts into Montgomery form).
    r2: Vec<u64>,
}

impl Montgomery {
    /// Build a context for `modulus`. Returns `None` when the modulus is
    /// even or ≤ 1 (REDC requires `gcd(n, 2^64) = 1`; callers fall back
    /// to the schoolbook path).
    pub fn new(modulus: &BigUint) -> Option<Montgomery> {
        if modulus.is_zero() || modulus.is_one() || modulus.is_even() {
            return None;
        }
        let k = modulus.limbs.len();
        // n0⁻¹ mod 2^64 by Newton–Hensel lifting: for odd n0 the seed n0
        // is correct mod 2³, and each step doubles the valid bit count.
        let n0 = modulus.limbs[0];
        let mut inv: u64 = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let pad = |v: BigUint| {
            let mut limbs = v.limbs;
            limbs.resize(k, 0);
            limbs
        };
        let one_m = pad(BigUint::one().shl_bits(64 * k).rem(modulus));
        let r2 = pad(BigUint::one().shl_bits(128 * k).rem(modulus));
        Some(Montgomery {
            n: modulus.clone(),
            k,
            n0_inv: inv.wrapping_neg(),
            one_m,
            r2,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The Montgomery form of 1 (`R mod n`).
    pub fn one(&self) -> BigUint {
        self.unpad(&self.one_m)
    }

    /// Convert `x` (any size) into Montgomery form: `xR mod n`.
    pub fn to_montgomery(&self, x: &BigUint) -> BigUint {
        let x_pad = self.pad(&x.rem(&self.n));
        let mut t = vec![0u64; self.k + 2];
        self.cios(&x_pad, &self.r2, &mut t);
        self.unpad(&t[..self.k])
    }

    /// Convert out of Montgomery form: `x_m · R⁻¹ mod n`.
    pub fn from_montgomery(&self, x_m: &BigUint) -> BigUint {
        debug_assert!(x_m < &self.n);
        let x_pad = self.pad(x_m);
        let mut one = vec![0u64; self.k];
        one[0] = 1;
        let mut t = vec![0u64; self.k + 2];
        self.cios(&x_pad, &one, &mut t);
        self.unpad(&t[..self.k])
    }

    /// Montgomery product of two Montgomery-form operands:
    /// `REDC(a_m · b_m) = (a·b)R mod n`.
    pub fn mul(&self, a_m: &BigUint, b_m: &BigUint) -> BigUint {
        debug_assert!(a_m < &self.n && b_m < &self.n);
        let a_pad = self.pad(a_m);
        let b_pad = self.pad(b_m);
        let mut t = vec![0u64; self.k + 2];
        self.cios(&a_pad, &b_pad, &mut t);
        self.unpad(&t[..self.k])
    }

    /// Montgomery squaring (one-shot wrapper over the fused squaring
    /// kernel; the exponentiation loop below calls the kernel directly
    /// on reused buffers instead).
    pub fn sqr(&self, a_m: &BigUint) -> BigUint {
        debug_assert!(a_m < &self.n);
        let a_pad = self.pad(a_m);
        let mut t = vec![0u64; self.k + 2];
        self.cios_sqr(&a_pad, &mut t);
        self.unpad(&t[..self.k])
    }

    /// Zero-pad a reduced value to exactly `k` limbs.
    fn pad(&self, v: &BigUint) -> Vec<u64> {
        let mut limbs = v.limbs.clone();
        limbs.resize(self.k, 0);
        limbs
    }

    /// Build a normalized [`BigUint`] from `k` little-endian limbs.
    fn unpad(&self, limbs: &[u64]) -> BigUint {
        let mut out = BigUint {
            limbs: limbs.to_vec(),
        };
        out.normalize();
        out
    }

    /// Fused multiply-and-reduce: `t[..k] = REDC(a · b)`, with `a`, `b`
    /// zero-padded to `k` limbs and `t` a `k+2`-limb scratch buffer
    /// (contents ignored on entry, low `k` limbs hold the reduced result
    /// on exit). One round per limb of `a`: add `a_i · b` into the
    /// accumulator, fold one limb with `m = t_0 · (-n⁻¹) mod 2^64`, and
    /// shift right one limb in place — no quotient estimation, no
    /// `2k`-limb intermediate.
    ///
    /// The paper's two key widths get dedicated monomorphized kernels
    /// ([`cios_fixed`]): `k = 8` covers 512-bit moduli (test keys and
    /// 1024-bit CRT halves) and `k = 16` covers 1024-bit moduli (the
    /// paper's verify path). Both run the *same* round helpers as the
    /// generic path — specialization changes the machine code, never
    /// the limb arithmetic — so outputs are bit-identical by
    /// construction (and enforced by tests).
    fn cios(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let k = self.k;
        debug_assert!(a.len() == k && b.len() == k && t.len() == k + 2);
        let n = &self.n.limbs;
        match k {
            8 => cios_fixed::<8, 10>(n, self.n0_inv, a, b, t),
            16 => cios_fixed::<16, 18>(n, self.n0_inv, a, b, t),
            _ => cios_kernel(n, self.n0_inv, a, b, t, k),
        }
    }

    /// Fused square-and-reduce: `t[..k] = REDC(a²)`, same contract as
    /// [`Self::cios`] with one operand. The squaring kernel computes
    /// only the upper-triangle products and doubles them in-flight, so
    /// each round's multiply step shrinks from `k` limb products to
    /// `k - i` — roughly half the multiplies of `cios(a, a, t)` over
    /// the whole reduction, with the REDC folding unchanged.
    fn cios_sqr(&self, a: &[u64], t: &mut [u64]) {
        let k = self.k;
        debug_assert!(a.len() == k && t.len() == k + 2);
        let n = &self.n.limbs;
        match k {
            8 => cios_sqr_fixed::<8, 10>(n, self.n0_inv, a, t),
            16 => cios_sqr_fixed::<16, 18>(n, self.n0_inv, a, t),
            _ => cios_sqr_kernel(n, self.n0_inv, a, t, k),
        }
    }

    /// `base^exponent mod n`, with base and result in the plain domain.
    ///
    /// The whole window loop runs in Montgomery form on two reused
    /// scratch buffers: one conversion in, one out, zero divisions and
    /// zero allocations in between.
    pub fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if exponent.is_zero() {
            return BigUint::one();
        }
        let base = base.rem(&self.n);
        if base.is_zero() {
            return BigUint::zero();
        }
        let base_m = self.to_montgomery(&base);
        let acc_m = self.pow_montgomery(&base_m, exponent);
        self.from_montgomery(&acc_m)
    }

    /// `base_m^exponent` with base and result **in Montgomery form** —
    /// the building block for chained users like Miller–Rabin that stay
    /// in the Montgomery domain across many operations.
    pub fn pow_montgomery(&self, base_m: &BigUint, exponent: &BigUint) -> BigUint {
        let k = self.k;
        if exponent.is_zero() {
            return self.one();
        }
        let bits = exponent.bit_length();
        let base_pad = self.pad(base_m);
        let mut acc = vec![0u64; k + 2];
        let mut scratch = vec![0u64; k + 2];

        if bits <= 64 {
            // Short exponents (RSA's e = 65537): plain left-to-right
            // binary saves the 14-entry table build.
            acc[..k].copy_from_slice(&base_pad);
            for i in (0..bits - 1).rev() {
                self.sqr_in_place(&mut acc, &mut scratch);
                if exponent.bit(i) {
                    self.mul_in_place(&mut acc, &base_pad, &mut scratch);
                }
            }
            return self.unpad(&acc[..k]);
        }

        // 4-bit fixed window: table[i] = base_m^i, padded to k limbs.
        let mut table: Vec<Vec<u64>> = Vec::with_capacity(16);
        table.push(self.one_m.clone());
        table.push(base_pad);
        for i in 2..16 {
            self.cios(&table[i - 1], &table[1], &mut scratch);
            table.push(scratch[..k].to_vec());
        }

        let windows = bits.div_ceil(4);
        acc[..k].copy_from_slice(&self.one_m);
        for w in (0..windows).rev() {
            if w != windows - 1 {
                for _ in 0..4 {
                    self.sqr_in_place(&mut acc, &mut scratch);
                }
            }
            let mut nibble = 0usize;
            for b in 0..4 {
                if exponent.bit(w * 4 + b) {
                    nibble |= 1 << b;
                }
            }
            if nibble != 0 {
                self.mul_in_place(&mut acc, &table[nibble], &mut scratch);
            }
        }
        self.unpad(&acc[..k])
    }

    /// `acc = REDC(acc²)` through the fused squaring kernel,
    /// ping-ponging between `acc` and `scratch` (the kernel only reads
    /// `acc` and only writes `scratch`, so the swap costs two pointer
    /// exchanges, not a copy). This is the square step of the window
    /// exponentiation — the bulk of every sign/verify.
    fn sqr_in_place(&self, acc: &mut Vec<u64>, scratch: &mut Vec<u64>) {
        let k = self.k;
        self.cios_sqr(&acc[..k], scratch);
        std::mem::swap(acc, scratch);
    }

    /// `acc = REDC(acc · b)`, ping-ponging like [`Self::sqr_in_place`].
    fn mul_in_place(&self, acc: &mut Vec<u64>, b: &[u64], scratch: &mut Vec<u64>) {
        let k = self.k;
        self.cios(&acc[..k], b, scratch);
        std::mem::swap(acc, scratch);
    }
}

/// Multiply step of one CIOS round: `t += a_i · b` (local offset 0;
/// the accumulator has already been shifted once per completed round,
/// so this lands row `i` at absolute offset `i`).
#[inline(always)]
fn mul_round(ai: u64, b: &[u64], t: &mut [u64], k: usize) {
    if ai == 0 {
        return;
    }
    let mut carry: u64 = 0;
    for (tj, &bj) in t[..k].iter_mut().zip(b) {
        let cur = *tj as u128 + (ai as u128) * (bj as u128) + carry as u128;
        *tj = cur as u64;
        carry = (cur >> 64) as u64;
    }
    let cur = t[k] as u128 + carry as u128;
    t[k] = cur as u64;
    t[k + 1] += (cur >> 64) as u64;
}

/// Multiply step of one *squaring* round: the diagonal `a_i²` at local
/// position `i` plus the doubled upper triangle `2·a_i·a_j` at `j` for
/// `j > i`. The lower triangle never gets computed — round
/// `min(p, q)` already added each cross product, doubled — which is
/// what makes the local write positions stationary across rounds and
/// keeps `t[0]` complete for the REDC fold below.
///
/// Doubling a 128-bit product can carry past 2¹²⁸, so the product is
/// split into `(hi, lo)` halves, shifted as
/// `2p = e·2¹²⁸ + hi2·2⁶⁴ + lo2` with `e = hi >> 63`, and accumulated
/// through a two-limb `u128` carry chain (`carry < 2⁶⁶`, so the chain
/// sums stay well inside `u128`).
#[inline(always)]
fn sqr_round(i: usize, a: &[u64], t: &mut [u64], k: usize) {
    let ai = a[i];
    if ai == 0 {
        return;
    }
    let p = (ai as u128) * (ai as u128);
    let sum = t[i] as u128 + (p as u64) as u128;
    t[i] = sum as u64;
    let mut carry: u128 = (sum >> 64) + (p >> 64);
    for j in i + 1..k {
        let p = (ai as u128) * (a[j] as u128);
        let lo = p as u64;
        let hi = (p >> 64) as u64;
        let lo2 = lo << 1;
        let hi2 = (hi << 1) | (lo >> 63);
        let e = hi >> 63;
        let sum = t[j] as u128 + lo2 as u128 + carry;
        t[j] = sum as u64;
        carry = (sum >> 64) + hi2 as u128 + ((e as u128) << 64);
    }
    let sum = t[k] as u128 + carry;
    t[k] = sum as u64;
    t[k + 1] += (sum >> 64) as u64;
}

/// Reduce step of one CIOS round: `t = (t + m·n) / 2⁶⁴` in place, with
/// `m = t_0 · (-n⁻¹) mod 2⁶⁴` chosen so the low limb folds to zero.
#[inline(always)]
fn redc_round(n: &[u64], n0_inv: u64, t: &mut [u64], k: usize) {
    let m = t[0].wrapping_mul(n0_inv);
    let cur = t[0] as u128 + (m as u128) * (n[0] as u128);
    debug_assert_eq!(cur as u64, 0);
    let mut carry = (cur >> 64) as u64;
    for j in 1..k {
        let cur = t[j] as u128 + (m as u128) * (n[j] as u128) + carry as u128;
        t[j - 1] = cur as u64;
        carry = (cur >> 64) as u64;
    }
    let cur = t[k] as u128 + carry as u128;
    t[k - 1] = cur as u64;
    t[k] = t[k + 1] + ((cur >> 64) as u64);
    t[k + 1] = 0;
}

/// Final conditional subtract: the accumulator holds a value < 2n.
#[inline(always)]
fn redc_finish(n: &[u64], t: &mut [u64], k: usize) {
    if t[k] != 0 || !slice_lt(&t[..k], n) {
        let mut borrow = 0u64;
        for (tj, &nj) in t[..k].iter_mut().zip(n) {
            let (d1, b1) = tj.overflowing_sub(nj);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *tj = d2;
            borrow = (b1 | b2) as u64;
        }
        debug_assert_eq!(t[k], borrow, "subtraction must consume the top limb");
        t[k] = 0;
    }
}

/// The generic (runtime-`k`) multiply kernel: `t[..k] = REDC(a · b)`.
#[inline(always)]
fn cios_kernel(n: &[u64], n0_inv: u64, a: &[u64], b: &[u64], t: &mut [u64], k: usize) {
    t.fill(0);
    for &ai in &a[..k] {
        mul_round(ai, b, t, k);
        redc_round(n, n0_inv, t, k);
    }
    redc_finish(n, t, k);
}

/// The generic (runtime-`k`) fused squaring kernel:
/// `t[..k] = REDC(a²)` via the upper triangle + doubling.
#[inline(always)]
fn cios_sqr_kernel(n: &[u64], n0_inv: u64, a: &[u64], t: &mut [u64], k: usize) {
    t.fill(0);
    for i in 0..k {
        sqr_round(i, a, t, k);
        redc_round(n, n0_inv, t, k);
    }
    redc_finish(n, t, k);
}

/// Fixed-width multiply kernel: copies the operands into `K`-limb
/// stack arrays and runs [`cios_kernel`] monomorphized with `k = K`
/// (`K2 = K + 2` scratch limbs), so every inner loop has a
/// compile-time trip count and array-backed bounds. The copies are a
/// few cache lines against a kernel of `~2K²` limb multiplies.
fn cios_fixed<const K: usize, const K2: usize>(
    n: &[u64],
    n0_inv: u64,
    a: &[u64],
    b: &[u64],
    t_out: &mut [u64],
) {
    debug_assert!(K2 == K + 2 && n.len() == K && t_out.len() == K2);
    let mut n_s = [0u64; K];
    let mut a_s = [0u64; K];
    let mut b_s = [0u64; K];
    n_s.copy_from_slice(&n[..K]);
    a_s.copy_from_slice(&a[..K]);
    b_s.copy_from_slice(&b[..K]);
    let mut t = [0u64; K2];
    cios_kernel(&n_s, n0_inv, &a_s, &b_s, &mut t, K);
    t_out.copy_from_slice(&t);
}

/// Fixed-width fused squaring kernel; see [`cios_fixed`].
fn cios_sqr_fixed<const K: usize, const K2: usize>(
    n: &[u64],
    n0_inv: u64,
    a: &[u64],
    t_out: &mut [u64],
) {
    debug_assert!(K2 == K + 2 && n.len() == K && t_out.len() == K2);
    let mut n_s = [0u64; K];
    let mut a_s = [0u64; K];
    n_s.copy_from_slice(&n[..K]);
    a_s.copy_from_slice(&a[..K]);
    let mut t = [0u64; K2];
    cios_sqr_kernel(&n_s, n0_inv, &a_s, &mut t, K);
    t_out.copy_from_slice(&t);
}

/// Lexicographic `<` over equal-length little-endian limb slices.
fn slice_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(Montgomery::new(&BigUint::zero()).is_none());
        assert!(Montgomery::new(&BigUint::one()).is_none());
        assert!(Montgomery::new(&n(100)).is_none());
        assert!(Montgomery::new(&n(101)).is_some());
    }

    #[test]
    fn n0_inv_is_exact() {
        for m in [3u128, 0xffff_ffff_ffff_fff1, (1 << 89) - 1, 1_000_000_007] {
            let ctx = Montgomery::new(&n(m)).unwrap();
            let n0 = ctx.n.limbs[0];
            assert_eq!(n0.wrapping_mul(ctx.n0_inv.wrapping_neg()), 1, "m={m}");
        }
    }

    #[test]
    fn to_from_roundtrip() {
        let m = n((1 << 89) - 1);
        let ctx = Montgomery::new(&m).unwrap();
        for v in [0u128, 1, 2, 12345, (1 << 88) + 7, (1 << 89) - 2] {
            let x = n(v);
            let x_m = ctx.to_montgomery(&x);
            assert!(x_m < m);
            assert_eq!(ctx.from_montgomery(&x_m), x.rem(&m), "v={v}");
        }
    }

    #[test]
    fn one_is_r_mod_n() {
        let m = n(1_000_000_007);
        let ctx = Montgomery::new(&m).unwrap();
        assert_eq!(ctx.one(), ctx.to_montgomery(&BigUint::one()));
        assert!(ctx.from_montgomery(&ctx.one()).is_one());
    }

    #[test]
    fn mul_matches_mul_mod() {
        let m = n((1u128 << 107) - 1);
        let ctx = Montgomery::new(&m).unwrap();
        let cases = [
            (0u128, 5u128),
            (1, 1),
            (123456789, 987654321),
            ((1 << 106) + 3, (1 << 100) + 17),
        ];
        for (a, b) in cases {
            let (a, b) = (n(a), n(b));
            let got = ctx.from_montgomery(&ctx.mul(&ctx.to_montgomery(&a), &ctx.to_montgomery(&b)));
            assert_eq!(got, a.mul_mod(&b, &m));
        }
    }

    #[test]
    fn dedicated_squaring_matches_general_multiply() {
        // Operands shaped to stress the kernel: zero limbs, max limbs,
        // values just under the modulus.
        let m = BigUint::from_bytes_be(&[0xef; 33]);
        let ctx = Montgomery::new(&m).unwrap();
        let operands = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from_u64(u64::MAX),
            BigUint {
                limbs: vec![0, 0, u64::MAX, 0xdead_beef],
            },
            BigUint::from_bytes_be(&[0xff; 32]),
            BigUint::from_bytes_be(&[0x01; 33]).rem(&m),
        ];
        for x in &operands {
            let x_m = ctx.to_montgomery(x);
            assert_eq!(ctx.sqr(&x_m), ctx.mul(&x_m, &x_m), "x={x:?}");
        }
    }

    #[test]
    fn pow_matches_schoolbook_small() {
        let cases = [
            (2u128, 10u128, 1001u128),
            (3, 0, 7),
            (0, 5, 7),
            (7, 13, 11),
            (123456789, 987654321, 1000000007),
            (2, 127, (1u128 << 89) - 1),
        ];
        for (b, e, m) in cases {
            let ctx = Montgomery::new(&n(m)).unwrap();
            assert_eq!(
                ctx.pow(&n(b), &n(e)),
                n(b).mod_pow_schoolbook(&n(e), &n(m)),
                "{b}^{e} mod {m}"
            );
        }
    }

    #[test]
    fn pow_matches_schoolbook_multi_limb() {
        // ~320-bit odd modulus; exponents around and above the 64-bit
        // short-exponent cutoff exercise both pow_montgomery branches.
        let m = BigUint::from_bytes_be(&[0xd7; 40]);
        assert!(m.is_odd());
        let ctx = Montgomery::new(&m).unwrap();
        let base = BigUint::from_bytes_be(&[0x5a; 37]);
        for e in [
            BigUint::from_u64(1),
            BigUint::from_u64(65537),
            BigUint::from_u64(u64::MAX),
            BigUint::from_u128(u128::MAX),
            BigUint::from_bytes_be(&[0x31; 33]),
        ] {
            assert_eq!(
                ctx.pow(&base, &e),
                base.mod_pow_schoolbook(&e, &m),
                "e={e:?}"
            );
        }
    }

    #[test]
    fn base_larger_than_modulus_is_reduced() {
        let m = n(1_000_003);
        let ctx = Montgomery::new(&m).unwrap();
        let big_base = n(u128::MAX - 4);
        assert_eq!(
            ctx.pow(&big_base, &n(12345)),
            big_base.mod_pow_schoolbook(&n(12345), &m)
        );
    }

    /// Deterministic limb stream for kernel cross-checks (xorshift64*).
    fn limb_stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    /// An odd `k`-limb modulus with a set top limb, plus reduced
    /// operands shaped to stress the kernels.
    fn kernel_fixture(k: usize, seed: u64) -> (Montgomery, Vec<Vec<u64>>) {
        let mut next = limb_stream(seed);
        let mut m_limbs: Vec<u64> = (0..k).map(|_| next()).collect();
        m_limbs[0] |= 1;
        m_limbs[k - 1] |= 1 << 63;
        let m = BigUint { limbs: m_limbs };
        let ctx = Montgomery::new(&m).unwrap();
        let mut operands: Vec<Vec<u64>> = vec![
            vec![0u64; k],
            {
                let mut one = vec![0u64; k];
                one[0] = 1;
                one
            },
            {
                // All-ones below the modulus: maximal carry pressure.
                let mut v = BigUint {
                    limbs: vec![u64::MAX; k],
                }
                .rem(&m)
                .limbs;
                v.resize(k, 0);
                v
            },
        ];
        for _ in 0..8 {
            let mut v = BigUint {
                limbs: (0..k).map(|_| next()).collect(),
            }
            .rem(&m)
            .limbs;
            v.resize(k, 0);
            operands.push(v);
        }
        (ctx, operands)
    }

    #[test]
    fn fused_squaring_is_bit_identical_to_the_multiply_kernel() {
        // Every limb of REDC(a²) must match REDC(a·a) exactly — at the
        // fixed widths (8, 16) and on the generic path (5, 23).
        for k in [5usize, 8, 16, 23] {
            let (ctx, operands) = kernel_fixture(k, 0x9e37_79b9_7f4a_7c15 ^ k as u64);
            for (i, a) in operands.iter().enumerate() {
                let mut via_mul = vec![0u64; k + 2];
                let mut via_sqr = vec![0u64; k + 2];
                ctx.cios(a, a, &mut via_mul);
                ctx.cios_sqr(a, &mut via_sqr);
                assert_eq!(via_mul, via_sqr, "k={k} operand #{i}");
            }
        }
    }

    #[test]
    fn fixed_width_kernels_are_bit_identical_to_the_generic_path() {
        // Bypass the dispatch and compare the monomorphized entry
        // points against the runtime-k kernels limb for limb.
        for k in [8usize, 16] {
            let (ctx, operands) = kernel_fixture(k, 0xdead_beef_cafe_f00d ^ k as u64);
            let n = &ctx.n.limbs;
            for (i, a) in operands.iter().enumerate() {
                for (j, b) in operands.iter().enumerate() {
                    let mut generic = vec![0u64; k + 2];
                    let mut fixed = vec![0u64; k + 2];
                    cios_kernel(n, ctx.n0_inv, a, b, &mut generic, k);
                    match k {
                        8 => cios_fixed::<8, 10>(n, ctx.n0_inv, a, b, &mut fixed),
                        _ => cios_fixed::<16, 18>(n, ctx.n0_inv, a, b, &mut fixed),
                    }
                    assert_eq!(generic[..k], fixed[..k], "k={k} mul #{i}x#{j}");
                }
                let mut generic = vec![0u64; k + 2];
                let mut fixed = vec![0u64; k + 2];
                cios_sqr_kernel(n, ctx.n0_inv, a, &mut generic, k);
                match k {
                    8 => cios_sqr_fixed::<8, 10>(n, ctx.n0_inv, a, &mut fixed),
                    _ => cios_sqr_fixed::<16, 18>(n, ctx.n0_inv, a, &mut fixed),
                }
                assert_eq!(generic[..k], fixed[..k], "k={k} sqr #{i}");
            }
        }
    }

    #[test]
    fn pow_at_the_fixed_widths_matches_schoolbook() {
        // 512-bit (k=8) and 1024-bit (k=16) moduli — the paper's two
        // key sizes — run entirely through the fixed-width kernels.
        for bytes in [64usize, 128] {
            let mut m = BigUint::from_bytes_be(&vec![0xc9; bytes]);
            m.limbs[0] |= 1;
            let ctx = Montgomery::new(&m).unwrap();
            let base = BigUint::from_bytes_be(&vec![0x6b; bytes - 3]);
            for e in [
                BigUint::from_u64(65537),
                BigUint::from_bytes_be(&[0x97; 24]),
            ] {
                assert_eq!(
                    ctx.pow(&base, &e),
                    base.mod_pow_schoolbook(&e, &m),
                    "bytes={bytes} e={e:?}"
                );
            }
        }
    }

    #[test]
    fn fermat_little_theorem_in_montgomery_domain() {
        let p = n(1_000_000_007);
        let ctx = Montgomery::new(&p).unwrap();
        for a in [2u128, 3, 65537, 999_999_999] {
            let a_m = ctx.to_montgomery(&n(a));
            let r = ctx.pow_montgomery(&a_m, &(&p - &BigUint::one()));
            assert_eq!(r, ctx.one(), "a={a}");
        }
    }
}
