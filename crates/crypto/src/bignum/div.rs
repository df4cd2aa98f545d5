//! Division with remainder: Knuth TAOCP Vol. 2, Algorithm 4.3.1 D.

use super::BigUint;
use crate::rsa::RsaError;

impl BigUint {
    /// Quotient and remainder of `self / divisor`. Panics on division by
    /// zero; inside this crate, `checked_div_rem` is the form for a
    /// divisor from data that has not been validated yet (deserialized
    /// key material, attacker-supplied moduli).
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        self.checked_div_rem(divisor)
            .expect("BigUint division by zero")
    }

    /// Quotient and remainder of `self / divisor`, with a zero divisor
    /// reported as [`RsaError::DivisionByZero`] instead of a panic.
    /// This is the boundary where the `divisor.limbs.last().unwrap()`
    /// inside Knuth's algorithm becomes unreachable: a normalized
    /// nonzero [`BigUint`] always has a top limb.
    pub(crate) fn checked_div_rem(
        &self,
        divisor: &BigUint,
    ) -> Result<(BigUint, BigUint), RsaError> {
        if divisor.is_zero() {
            return Err(RsaError::DivisionByZero);
        }
        if self < divisor {
            return Ok((BigUint::zero(), self.clone()));
        }
        if divisor.limbs.len() == 1 {
            return Ok(self.div_rem_small(divisor.limbs[0]));
        }
        Ok(self.div_rem_knuth(divisor))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// Fast path for single-limb divisors.
    fn div_rem_small(&self, d: u64) -> (BigUint, BigUint) {
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            quotient[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut q = BigUint { limbs: quotient };
        q.normalize();
        (q, BigUint::from_u64(rem as u64))
    }

    /// Knuth Algorithm D for multi-limb divisors. Only reachable through
    /// [`BigUint::checked_div_rem`], which has already rejected a zero
    /// divisor — so the top limb exists by the normalization invariant.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor
            .limbs
            .last()
            .expect("checked_div_rem rejected zero divisors")
            .leading_zeros() as usize;
        let u = self.shl_bits(shift); // dividend
        let v = divisor.shl_bits(shift); // divisor
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Work array with one extra high limb (u_{m+n}).
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_second = vn[n - 2];

        let mut q = vec![0u64; m + 1];

        // D2-D7: main loop over quotient digits, most significant first.
        for j in (0..=m).rev() {
            // D3: estimate qhat from the top two dividend limbs.
            let numerator = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = numerator / v_top as u128;
            let mut rhat = numerator % v_top as u128;

            // Refine: qhat is at most 2 too large.
            while qhat >> 64 != 0
                || qhat * v_second as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }

            // D4: multiply and subtract u[j..j+n] -= qhat * v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - borrow - (p as u64) as i128;
                un[i + j] = t as u64; // wrapping store
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - borrow - carry as i128;
            un[j + n] = t as u64;

            // D5-D6: if we subtracted too much, add one divisor back.
            if t < 0 {
                qhat -= 1;
                let mut carry: u128 = 0;
                for i in 0..n {
                    let sum = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = sum as u64;
                    carry = sum >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }

            q[j] = qhat as u64;
        }

        // D8: denormalize the remainder.
        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quotient, rem.shr_bits(shift))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn small_divisor_matches_u128() {
        let cases = [
            (100u128, 7u128),
            (u128::MAX, 3),
            (0, 5),
            (12345678901234567890, 987654321),
            (1 << 127, u64::MAX as u128),
        ];
        for (a, b) in cases {
            let (q, r) = n(a).div_rem(&n(b));
            assert_eq!(q, n(a / b), "{a} / {b}");
            assert_eq!(r, n(a % b), "{a} % {b}");
        }
    }

    #[test]
    fn multi_limb_divisor_matches_u128() {
        let cases = [
            (u128::MAX, u128::MAX / 3),
            (u128::MAX, (1u128 << 64) + 1),
            (u128::MAX - 1, u128::MAX),
            ((1u128 << 100) + 17, (1u128 << 65) + 3),
        ];
        for (a, b) in cases {
            let (q, r) = n(a).div_rem(&n(b));
            assert_eq!(q, n(a / b), "{a} / {b}");
            assert_eq!(r, n(a % b), "{a} % {b}");
        }
    }

    #[test]
    fn identity_reconstruction() {
        // a == q*b + r for structured multi-limb values.
        let a = BigUint::from_bytes_be(&[0xfe; 40]);
        let b = BigUint::from_bytes_be(&[0x3b; 17]);
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn dividend_smaller_than_divisor() {
        let (q, r) = n(5).div_rem(&n(100));
        assert!(q.is_zero());
        assert_eq!(r, n(5));
    }

    #[test]
    fn exact_division() {
        let b = BigUint::from_bytes_be(&[0x7f; 20]);
        let a = &b * &n(1_000_003);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, n(1_000_003));
        assert!(r.is_zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn checked_division_reports_zero_divisor_as_typed_error() {
        use crate::rsa::RsaError;
        // The boundary: zero divisor is an Err, never a panic — for
        // every dividend shape (zero, single-limb, multi-limb).
        for dividend in [BigUint::zero(), n(7), BigUint::from_bytes_be(&[0xab; 24])] {
            assert_eq!(
                dividend.checked_div_rem(&BigUint::zero()).unwrap_err(),
                RsaError::DivisionByZero
            );
        }
        // And one past the boundary: the smallest nonzero divisor works.
        let (q, r) = n(7).checked_div_rem(&BigUint::one()).unwrap();
        assert_eq!(q, n(7));
        assert!(r.is_zero());
    }

    #[test]
    fn checked_division_matches_panicking_path_on_nonzero_divisors() {
        let a = BigUint::from_bytes_be(&[0x5c; 33]);
        for b in [n(3), n(1 << 40), BigUint::from_bytes_be(&[0x11; 17])] {
            assert_eq!(a.checked_div_rem(&b).unwrap(), a.div_rem(&b));
        }
    }

    #[test]
    fn knuth_d6_addback_case() {
        // Trigger the rare add-back branch: dividend crafted so the first
        // qhat estimate overshoots. Classic trigger: u = [0, qhat-trap]
        // with divisor top limb just below 2^63.
        let u = BigUint {
            limbs: vec![0, 0, 0x8000_0000_0000_0000, 0x7fff_ffff_ffff_ffff],
        };
        let v = BigUint {
            limbs: vec![1, 0x8000_0000_0000_0000],
        };
        let (q, r) = u.div_rem(&v);
        assert_eq!(&(&q * &v) + &r, u);
        assert!(r < v);
    }
}
