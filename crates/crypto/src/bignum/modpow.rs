//! Modular exponentiation and modular inverse.

use super::BigUint;

impl BigUint {
    /// `(self * other) mod m`.
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        (self * other).rem(m)
    }

    /// `self^exponent mod modulus`.
    ///
    /// For odd moduli (every RSA modulus, prime, and CRT factor in this
    /// library) the whole windowed loop runs in Montgomery form via
    /// [`super::Montgomery`], eliminating one Algorithm-D division per
    /// squaring/multiply. Even moduli fall back to
    /// [`BigUint::mod_pow_schoolbook`].
    ///
    /// Callers that exponentiate repeatedly under one modulus (RSA keys,
    /// Miller–Rabin witnesses) should build a [`super::Montgomery`]
    /// context once and call [`super::Montgomery::pow`] directly; this
    /// convenience wrapper re-derives the context on every call.
    pub fn mod_pow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "mod_pow with zero modulus");
        if let Some(ctx) = super::Montgomery::new(modulus) {
            return ctx.pow(self, exponent);
        }
        self.mod_pow_schoolbook(exponent, modulus)
    }

    /// `self^exponent mod modulus` by 4-bit fixed-window square-and-multiply
    /// with a full multiply + Knuth Algorithm-D division per step.
    ///
    /// Kept as the even-modulus fallback and as the reference the
    /// Montgomery property tests cross-check against.
    pub fn mod_pow_schoolbook(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "mod_pow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if exponent.is_zero() {
            return BigUint::one();
        }
        let base = self.rem(modulus);
        if base.is_zero() {
            return BigUint::zero();
        }

        // Precompute base^0 .. base^15.
        let mut table = Vec::with_capacity(16);
        table.push(BigUint::one());
        table.push(base.clone());
        for i in 2..16 {
            let prev: &BigUint = &table[i - 1];
            table.push(prev.mul_mod(&base, modulus));
        }

        let bits = exponent.bit_length();
        let windows = bits.div_ceil(4);
        let mut acc = BigUint::one();
        for w in (0..windows).rev() {
            if w != windows - 1 {
                for _ in 0..4 {
                    acc = acc.mul_mod(&acc, modulus);
                }
            }
            let mut nibble = 0usize;
            for b in 0..4 {
                if exponent.bit(w * 4 + b) {
                    nibble |= 1 << b;
                }
            }
            if nibble != 0 {
                acc = acc.mul_mod(&table[nibble], modulus);
            }
        }
        acc
    }

    /// Multiplicative inverse of `self` modulo `m`, via the extended
    /// Euclidean algorithm; `None` when `gcd(self, m) != 1`.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Track Bezout coefficients for `self` only, in (value, negative?)
        // form so we never need signed bignums.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        if r1.is_zero() {
            return None;
        }
        let mut t0 = (BigUint::zero(), false);
        let mut t1 = (BigUint::one(), false);

        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1, with explicit sign bookkeeping.
            let qt1 = &q * &t1.0;
            let t2 = match (t0.1, t1.1) {
                (false, false) => {
                    if t0.0 >= qt1 {
                        (&t0.0 - &qt1, false)
                    } else {
                        (&qt1 - &t0.0, true)
                    }
                }
                (false, true) => (&t0.0 + &qt1, false),
                (true, false) => (&t0.0 + &qt1, true),
                (true, true) => {
                    if qt1 >= t0.0 {
                        (&qt1 - &t0.0, false)
                    } else {
                        (&t0.0 - &qt1, true)
                    }
                }
            };
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }

        if !r0.is_one() {
            return None; // gcd != 1
        }
        let (mag, neg) = t0;
        let inv = if neg { m - &mag.rem(m) } else { mag.rem(m) };
        Some(inv.rem(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    /// Reference modpow on primitives.
    fn modpow_u128(mut base: u128, mut exp: u128, m: u128) -> u128 {
        let mut acc: u128 = 1 % m;
        base %= m;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc * base % m;
            }
            base = base * base % m;
            exp >>= 1;
        }
        acc
    }

    #[test]
    fn mod_pow_matches_primitive() {
        let cases = [
            (2u128, 10u128, 1000u128),
            (3, 0, 7),
            (0, 5, 7),
            (7, 13, 11),
            (123456789, 987654321, 1000000007),
            (2, 127, (1u128 << 61) - 1),
        ];
        for (b, e, m) in cases {
            assert_eq!(
                n(b).mod_pow(&n(e), &n(m)),
                n(modpow_u128(b, e, m)),
                "{b}^{e} mod {m}"
            );
        }
    }

    #[test]
    fn mod_pow_modulus_one() {
        assert!(n(5).mod_pow(&n(3), &n(1)).is_zero());
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) = 1 mod p for prime p not dividing a.
        let p = n(1_000_000_007);
        for a in [2u128, 3, 65537, 999_999_999] {
            assert!(n(a).mod_pow(&(&p - &n(1)), &p).is_one(), "a={a}");
        }
    }

    #[test]
    fn mod_inverse_small() {
        // 3 * 5 = 15 = 1 mod 7
        assert_eq!(n(3).mod_inverse(&n(7)), Some(n(5)));
        // gcd(4, 8) = 4, no inverse
        assert_eq!(n(4).mod_inverse(&n(8)), None);
        // 0 has no inverse
        assert_eq!(n(0).mod_inverse(&n(7)), None);
    }

    #[test]
    fn mod_inverse_verifies() {
        let m = n((1u128 << 89) - 1); // Mersenne prime
        for a in [2u128, 3, 1234567, (1 << 80) + 17] {
            let inv = n(a).mod_inverse(&m).expect("prime modulus");
            assert!(n(a).mul_mod(&inv, &m).is_one(), "a={a}");
        }
    }

    #[test]
    fn mod_inverse_large_operands() {
        // RSA-like: inverse of e=65537 modulo a ~200-bit odd number.
        let m = BigUint::from_bytes_be(&[
            0x0d, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf1, 0x23, 0x45, 0x67, 0x89, 0xab,
            0xcd, 0xef, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x01,
        ]);
        let e = n(65537);
        if let Some(inv) = e.mod_inverse(&m) {
            assert!(e.mul_mod(&inv, &m).is_one());
        }
    }
}
