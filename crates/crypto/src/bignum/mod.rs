//! Arbitrary-precision unsigned integer arithmetic, from scratch.
//!
//! This is the substrate for the RSA signature scheme (the paper assumes
//! 1024-bit signatures, Table 1). Limbs are little-endian `u64`s; all
//! intermediate products use `u128`. The module provides exactly what RSA
//! needs — comparison, add/sub/mul, Knuth Algorithm D division, modular
//! exponentiation (Montgomery REDC for odd moduli, schoolbook division
//! otherwise), modular inverse, and Miller–Rabin primality — with no
//! attempt at constant-time behaviour (this library authenticates public
//! query results; it does not defend the signer against local timing
//! side channels).

mod arith;
mod div;
mod modpow;
mod montgomery;
mod prime;

pub use montgomery::Montgomery;
pub use prime::{gen_prime, is_probable_prime};

use std::cmp::Ordering;
use std::fmt;

/// Little-endian sequence of 64-bit limbs, normalized so the most
/// significant limb is non-zero (zero is the empty limb vector).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a primitive.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from a primitive `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// Big-endian byte decoding (leading zeros permitted).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if acc != 0 || shift > 0 {
            limbs.push(acc);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Big-endian byte encoding with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the top limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Big-endian byte encoding left-padded with zeros to exactly `len`
    /// bytes. Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// True iff the value is even (0 counts as even).
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_length(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Drop leading zero limbs to restore the normalized representation.
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "BigUint(0x0)");
        }
        write!(f, "BigUint(0x")?;
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip() {
        let cases: &[&[u8]] = &[
            &[],
            &[0x01],
            &[0xff],
            &[0x01, 0x00],
            &[0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe, 0x42],
        ];
        for &bytes in cases {
            let n = BigUint::from_bytes_be(bytes);
            let back = n.to_bytes_be();
            // Leading zeros are not preserved; compare numerically.
            let renorm: Vec<u8> = {
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(bytes.len());
                bytes[first..].to_vec()
            };
            assert_eq!(back, renorm);
        }
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        let a = BigUint::from_bytes_be(&[0, 0, 0, 5]);
        let b = BigUint::from_u64(5);
        assert_eq!(a, b);
    }

    #[test]
    fn padded_encoding() {
        let n = BigUint::from_u64(0x0102);
        assert_eq!(n.to_bytes_be_padded(4), Some(vec![0, 0, 1, 2]));
        assert_eq!(n.to_bytes_be_padded(2), Some(vec![1, 2]));
        assert_eq!(n.to_bytes_be_padded(1), None);
        assert_eq!(BigUint::zero().to_bytes_be_padded(3), Some(vec![0, 0, 0]));
    }

    #[test]
    fn bit_length_cases() {
        assert_eq!(BigUint::zero().bit_length(), 0);
        assert_eq!(BigUint::one().bit_length(), 1);
        assert_eq!(BigUint::from_u64(0xff).bit_length(), 8);
        assert_eq!(BigUint::from_u64(u64::MAX).bit_length(), 64);
        assert_eq!(BigUint::from_u128(1u128 << 64).bit_length(), 65);
    }

    #[test]
    fn bit_access() {
        let n = BigUint::from_u64(0b1010);
        assert!(!n.bit(0));
        assert!(n.bit(1));
        assert!(!n.bit(2));
        assert!(n.bit(3));
        assert!(!n.bit(100));
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(100);
        let b = BigUint::from_u64(200);
        let c = BigUint::from_u128(1u128 << 100);
        assert!(a < b);
        assert!(b < c);
        assert!(a == a.clone());
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn parity() {
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert!(BigUint::from_u64(42).is_even());
    }
}
