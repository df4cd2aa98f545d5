//! Addition, subtraction, multiplication, and bit shifts for [`BigUint`].

use super::BigUint;
use std::ops::{Add, Mul, Shl, Shr, Sub};

impl BigUint {
    /// `self + other`.
    pub(crate) fn add_ref(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry: u64 = 0;
        for (i, &l) in long.iter().enumerate() {
            let a = l as u128;
            let b = *short.get(i).unwrap_or(&0) as u128;
            let sum = a + b + carry as u128;
            out.push(sum as u64);
            carry = (sum >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`; panics when `other > self` (the callers all guarantee
    /// the invariant, and a silent wrap would corrupt signatures).
    pub(crate) fn sub_ref(&self, other: &BigUint) -> BigUint {
        assert!(
            self >= other,
            "BigUint subtraction underflow: {self:?} - {other:?}"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i128 = 0;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i128;
            let b = *other.limbs.get(i).unwrap_or(&0) as i128;
            let mut diff = a - b - borrow;
            if diff < 0 {
                diff += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(diff as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Schoolbook `self * other`. Operand sizes in this library top out at a
    /// few dozen limbs (2048-bit RSA intermediates), where schoolbook with
    /// `u128` partial products beats the bookkeeping cost of Karatsuba.
    pub(crate) fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry as u128;
                out[i + j] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            out[i + other.limbs.len()] = carry;
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self << bits`.
    pub fn shl_bits(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            let mut n = self.clone();
            n.normalize();
            return n;
        }
        let limb_shift = bits / 64;
        let bit_shift = (bits % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self >> bits`.
    pub fn shr_bits(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = (bits % 64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        self.add_ref(rhs)
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.sub_ref(rhs)
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn add_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (1, 1),
            (u64::MAX as u128, 1),
            (u64::MAX as u128, u64::MAX as u128),
            (1 << 100, (1 << 100) - 1),
        ];
        for (a, b) in cases {
            assert_eq!(&n(a) + &n(b), n(a + b), "{a} + {b}");
        }
    }

    #[test]
    fn sub_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (5, 5),
            (u64::MAX as u128 + 1, 1),
            (1 << 127, 1),
            ((1 << 100) + 7, 1 << 100),
        ];
        for (a, b) in cases {
            assert_eq!(&n(a) - &n(b), n(a - b), "{a} - {b}");
        }
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &n(1) - &n(2);
    }

    #[test]
    fn mul_matches_u128() {
        let cases = [
            (0u128, 12345u128),
            (1, u64::MAX as u128),
            (u32::MAX as u128, u32::MAX as u128),
            (u64::MAX as u128, u64::MAX as u128),
            (0xdead_beef, 0xcafe_babe),
        ];
        for (a, b) in cases {
            assert_eq!(&n(a) * &n(b), n(a.wrapping_mul(b)), "{a} * {b}");
        }
    }

    #[test]
    fn mul_large_known_product() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let a = &(&n(1) << 128) - &n(1);
        let sq = &a * &a;
        let expect = &(&(&n(1) << 256) - &(&n(1) << 129)) + &n(1);
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts_roundtrip() {
        let v = BigUint::from_bytes_be(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11]);
        for bits in [0usize, 1, 7, 63, 64, 65, 130] {
            let shifted = &(&v << bits) >> bits;
            assert_eq!(shifted, v, "bits={bits}");
        }
    }

    #[test]
    fn shr_drops_low_bits() {
        assert_eq!(&n(0b1011) >> 1, n(0b101));
        assert_eq!(&n(0b1011) >> 4, n(0));
        assert_eq!(&(&n(1) << 200) >> 200, n(1));
    }

    #[test]
    fn add_is_commutative_on_mixed_sizes() {
        let small = n(7);
        let big = &n(1) << 300;
        assert_eq!(&small + &big, &big + &small);
    }
}
