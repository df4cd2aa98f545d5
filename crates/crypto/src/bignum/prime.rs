//! Probabilistic primality testing and random prime generation
//! (for RSA key generation).

use super::{BigUint, Montgomery};
use rand::Rng;

/// Small primes used to cheaply reject most composite candidates before
/// running Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Miller–Rabin primality test with `rounds` random bases.
///
/// With 32 rounds the error probability is below 2^-64, far beyond what the
/// benchmark key material requires.
pub(crate) fn is_probable_prime<R: Rng>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    if n == &BigUint::from_u64(2) {
        return true;
    }
    if n.is_even() {
        return false;
    }
    // Trial division screen.
    for &p in &SMALL_PRIMES {
        let bp = BigUint::from_u64(p);
        if n == &bp {
            return true;
        }
        if n.rem(&bp).is_zero() {
            return false;
        }
    }

    // Write n - 1 = d * 2^s with d odd.
    let one = BigUint::one();
    let n_minus_1 = n - &one;
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr_bits(1);
        s += 1;
    }

    // One Montgomery context per candidate (n is odd past the screens
    // above), shared by every witness: the entire exponentiate-then-square
    // loop runs in Montgomery form, with no per-operation division.
    let ctx = Montgomery::new(n).expect("candidate is odd and > 2");
    let one_m = ctx.one();
    let minus_one_m = ctx.to_montgomery(&n_minus_1);

    'witness: for _ in 0..rounds {
        let a = random_below(&n_minus_1, rng);
        if a.is_zero() || a.is_one() {
            continue;
        }
        let mut x = ctx.pow_montgomery(&ctx.to_montgomery(&a), &d);
        if x == one_m || x == minus_one_m {
            continue;
        }
        for _ in 0..s - 1 {
            x = ctx.sqr(&x);
            if x == minus_one_m {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Uniform random value in `[0, bound)`; `bound` must be non-zero.
fn random_below<R: Rng>(bound: &BigUint, rng: &mut R) -> BigUint {
    let bits = bound.bit_length();
    loop {
        let candidate = random_bits(bits, rng);
        if &candidate < bound {
            return candidate;
        }
    }
}

/// Random value with at most `bits` bits.
fn random_bits<R: Rng>(bits: usize, rng: &mut R) -> BigUint {
    let limbs_needed = bits.div_ceil(64);
    let mut limbs = Vec::with_capacity(limbs_needed);
    for _ in 0..limbs_needed {
        limbs.push(rng.gen::<u64>());
    }
    // Mask excess bits in the top limb.
    let excess = limbs_needed * 64 - bits;
    if excess > 0 {
        if let Some(top) = limbs.last_mut() {
            *top >>= excess;
        }
    }
    let mut n = BigUint { limbs };
    n.normalize();
    n
}

/// Generate a random probable prime of exactly `bits` bits.
///
/// The top two bits are forced to 1 (standard practice for RSA primes so
/// the product p*q reaches the full modulus width), the low bit is forced
/// to 1, and candidates advance by 2 until Miller–Rabin accepts.
pub(crate) fn gen_prime<R: Rng>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 16, "prime size too small to be meaningful: {bits}");
    let two = BigUint::from_u64(2);
    loop {
        let mut candidate = random_bits(bits, rng);
        // Force exact bit width with top-two-bits set, and oddness.
        candidate =
            &candidate | &(&BigUint::one().shl_bits(bits - 1) + &BigUint::one().shl_bits(bits - 2));
        if candidate.is_even() {
            candidate = &candidate + &BigUint::one();
        }
        // Probe a window of odd numbers from the random starting point.
        for _ in 0..512 {
            if is_probable_prime(&candidate, 32, rng) {
                return candidate;
            }
            candidate = &candidate + &two;
            if candidate.bit_length() > bits {
                break; // overflowed the width; redraw
            }
        }
    }
}

impl std::ops::BitOr for &BigUint {
    type Output = BigUint;
    fn bitor(self, rhs: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (&self.limbs, &rhs.limbs)
        } else {
            (&rhs.limbs, &self.limbs)
        };
        let mut out = long.clone();
        for (i, &l) in short.iter().enumerate() {
            out[i] |= l;
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xdecafbad)
    }

    #[test]
    fn known_primes_accepted() {
        let mut r = rng();
        for p in [
            2u64,
            3,
            5,
            65537,
            1_000_000_007,
            (1 << 31) - 1,              // Mersenne
            18_446_744_073_709_551_557, // largest u64 prime
        ] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut r),
                "p={p}"
            );
        }
    }

    #[test]
    fn known_composites_rejected() {
        let mut r = rng();
        for c in [
            1u64,
            4,
            100,
            561,           // Carmichael
            41041,         // Carmichael
            825265,        // Carmichael
            (1 << 11) - 1, // 2047 = 23*89, strong pseudoprime base 2
        ] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "c={c}"
            );
        }
    }

    #[test]
    fn large_known_prime() {
        // 2^89 - 1 is a Mersenne prime.
        let p = &BigUint::one().shl_bits(89) - &BigUint::one();
        assert!(is_probable_prime(&p, 16, &mut rng()));
        // 2^87 - 1 is composite.
        let c = &BigUint::one().shl_bits(87) - &BigUint::one();
        assert!(!is_probable_prime(&c, 16, &mut rng()));
    }

    #[test]
    fn generated_primes_have_exact_width() {
        let mut r = rng();
        for bits in [64usize, 96, 128] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_length(), bits, "bits={bits}");
            assert!(p.is_odd());
            assert!(is_probable_prime(&p, 16, &mut r));
        }
    }

    #[test]
    fn random_below_is_in_range() {
        let mut r = rng();
        let bound = BigUint::from_u64(1000);
        for _ in 0..200 {
            let v = random_below(&bound, &mut r);
            assert!(v < bound);
        }
    }

    #[test]
    fn bitor_merges() {
        let a = BigUint::from_u64(0b1010);
        let b = BigUint::from_u64(0b0101);
        assert_eq!(&a | &b, BigUint::from_u64(0b1111));
        let wide = BigUint::one().shl_bits(100);
        assert_eq!((&a | &wide).bit_length(), 101);
    }
}
