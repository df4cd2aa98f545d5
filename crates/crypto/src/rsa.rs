//! RSA signatures (PKCS#1 v1.5, SHA-256), from scratch on [`BigUint`].
//!
//! The paper's data owner signs the root of every authentication structure
//! with a 1024-bit signature (Table 1: |sign| = 1024 bits). This module
//! provides key generation (Miller–Rabin primes, e = 65537), signing with
//! the standard CRT speed-up, and verification.

use crate::bignum::{gen_prime, BigUint, Montgomery};
use crate::sha256::Sha256;
use rand::Rng;
use std::fmt;

/// DER encoding of `DigestInfo` for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// Errors from signature operations (and the bignum arithmetic
/// backing them).
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(unused-pub): reached only as the error of `RsaPrivateKey::sign` and `RsaPublicKey::verify`
pub enum RsaError {
    /// Modulus too small to hold the PKCS#1 v1.5 encoding.
    ModulusTooSmall,
    /// Signature length does not match the modulus length.
    BadSignatureLength {
        /// Modulus length in bytes.
        expected: usize,
        /// Length of the signature actually supplied.
        got: usize,
    },
    /// Signature arithmetic check failed (forged or corrupted signature).
    VerificationFailed,
    /// A reduction was asked for modulo zero (e.g. a zero modulus in
    /// deserialized key material) — a caller bug or corrupt input,
    /// reported as a typed error by the `checked_*` bignum entry points
    /// instead of a panic.
    DivisionByZero,
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::ModulusTooSmall => write!(f, "RSA modulus too small for PKCS#1 v1.5"),
            RsaError::BadSignatureLength { expected, got } => {
                write!(f, "bad signature length: expected {expected}, got {got}")
            }
            RsaError::VerificationFailed => write!(f, "RSA signature verification failed"),
            RsaError::DivisionByZero => write!(f, "bignum division by zero"),
        }
    }
}

impl std::error::Error for RsaError {}

/// RSA public key: enough to verify any signature from the data owner.
///
/// Carries a precomputed [`Montgomery`] context for `n` so the verifier
/// (the paper's *user*) pays the per-modulus REDC setup once per key, not
/// once per signature check.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    /// Modulus length in bytes; every signature is exactly this long.
    k: usize,
    /// Montgomery context for `n` (RSA moduli are odd by construction).
    ctx_n: Montgomery,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // ctx_n is a pure function of n; comparing it would be redundant.
        self.n == other.n && self.e == other.e && self.k == other.k
    }
}

impl Eq for RsaPublicKey {}

/// RSA private key with CRT parameters.
///
/// The CRT factors carry their own precomputed [`Montgomery`] contexts:
/// every signature is two half-width Montgomery exponentiations with no
/// division in the loop.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    p: BigUint,
    q: BigUint,
    d_p: BigUint,
    d_q: BigUint,
    q_inv: BigUint,
    ctx_p: Montgomery,
    ctx_q: Montgomery,
}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RsaPublicKey({} bits)", self.n.bit_length())
    }
}

impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print private material.
        write!(f, "RsaPrivateKey({} bits)", self.public.n.bit_length())
    }
}

impl RsaPublicKey {
    /// Signature / modulus size in bytes.
    pub fn signature_len(&self) -> usize {
        self.k
    }

    /// Modulus size in bits.
    pub fn modulus_bits(&self) -> usize {
        self.n.bit_length()
    }

    /// Verify a PKCS#1 v1.5 SHA-256 signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), RsaError> {
        crate::counters::rsa_verified();
        if signature.len() != self.k {
            return Err(RsaError::BadSignatureLength {
                expected: self.k,
                got: signature.len(),
            });
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(RsaError::VerificationFailed);
        }
        let em = self.ctx_n.pow(&s, &self.e);
        let em_bytes = em
            .to_bytes_be_padded(self.k)
            .ok_or(RsaError::VerificationFailed)?;
        let expected = pkcs1_v15_encode(message, self.k)?;
        if em_bytes == expected {
            Ok(())
        } else {
            Err(RsaError::VerificationFailed)
        }
    }

    /// Verify using the schoolbook (division-based) exponentiation — the
    /// pre-Montgomery implementation, kept as a test oracle.
    #[cfg(test)]
    fn verify_schoolbook_reference(
        &self,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), RsaError> {
        if signature.len() != self.k {
            return Err(RsaError::BadSignatureLength {
                expected: self.k,
                got: signature.len(),
            });
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(RsaError::VerificationFailed);
        }
        let em = s.mod_pow_schoolbook(&self.e, &self.n);
        let em_bytes = em
            .to_bytes_be_padded(self.k)
            .ok_or(RsaError::VerificationFailed)?;
        let expected = pkcs1_v15_encode(message, self.k)?;
        if em_bytes == expected {
            Ok(())
        } else {
            Err(RsaError::VerificationFailed)
        }
    }

    /// Serialize as `len(n) || n || len(e) || e` (big-endian u32 lengths).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        // lint:allow(truncating-cast): modulus and exponent byte lengths are bounded by the largest supported key size (a few KiB), far below u32
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        // lint:allow(truncating-cast): same bound as the modulus length above
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Inverse of [`RsaPublicKey::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<RsaPublicKey> {
        let mut cur = bytes;
        let take = |cur: &mut &[u8]| -> Option<Vec<u8>> {
            if cur.len() < 4 {
                return None;
            }
            let len = u32::from_be_bytes([cur[0], cur[1], cur[2], cur[3]]) as usize;
            *cur = &cur[4..];
            if cur.len() < len {
                return None;
            }
            let out = cur[..len].to_vec();
            *cur = &cur[len..];
            Some(out)
        };
        let n_bytes = take(&mut cur)?;
        let e_bytes = take(&mut cur)?;
        if !cur.is_empty() {
            return None;
        }
        let n = BigUint::from_bytes_be(&n_bytes);
        let e = BigUint::from_bytes_be(&e_bytes);
        if n.is_zero() || e.is_zero() {
            return None;
        }
        let k = n.bit_length().div_ceil(8);
        // Even moduli are not valid RSA moduli (p, q are odd primes).
        let ctx_n = Montgomery::new(&n)?;
        Some(RsaPublicKey { n, e, k, ctx_n })
    }
}

impl RsaPrivateKey {
    /// Generate a fresh key with a modulus of `bits` bits (e = 65537).
    ///
    /// 1024 bits matches the paper; tests use smaller keys for speed.
    pub fn generate<R: Rng>(bits: usize, rng: &mut R) -> RsaPrivateKey {
        assert!(bits >= 256, "RSA modulus below 256 bits is meaningless");
        let e = BigUint::from_u64(65537);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_length() != bits {
                continue;
            }
            let one = BigUint::one();
            let phi = &(&p - &one) * &(&q - &one);
            let Some(d) = e.mod_inverse(&phi) else {
                continue; // gcd(e, phi) != 1; redraw primes
            };
            let d_p = d.rem(&(&p - &one));
            let d_q = d.rem(&(&q - &one));
            let Some(q_inv) = q.mod_inverse(&p) else {
                continue;
            };
            let k = bits.div_ceil(8);
            let ctx_n = Montgomery::new(&n).expect("product of odd primes is odd");
            let ctx_p = Montgomery::new(&p).expect("prime factor is odd");
            let ctx_q = Montgomery::new(&q).expect("prime factor is odd");
            return RsaPrivateKey {
                public: RsaPublicKey { n, e, k, ctx_n },
                p,
                q,
                d_p,
                d_q,
                q_inv,
                ctx_p,
                ctx_q,
            };
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Sign `message` (PKCS#1 v1.5 over SHA-256) using the CRT speed-up.
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, RsaError> {
        let em = pkcs1_v15_encode(message, self.public.k)?;
        let m = BigUint::from_bytes_be(&em);
        let s = self.private_op_crt(&m);
        s.to_bytes_be_padded(self.public.k)
            .ok_or(RsaError::VerificationFailed)
    }

    /// Sign without CRT (plain `m^d mod n`, with `d` re-derived from
    /// the factors) — a test oracle for the CRT path.
    #[cfg(test)]
    fn sign_no_crt(&self, message: &[u8]) -> Result<Vec<u8>, RsaError> {
        let em = pkcs1_v15_encode(message, self.public.k)?;
        let m = BigUint::from_bytes_be(&em);
        let one = BigUint::one();
        let phi = &(&self.p - &one) * &(&self.q - &one);
        let d = self
            .public
            .e
            .mod_inverse(&phi)
            .expect("e is invertible mod phi");
        let s = self.public.ctx_n.pow(&m, &d);
        s.to_bytes_be_padded(self.public.k)
            .ok_or(RsaError::VerificationFailed)
    }

    /// Sign via CRT but with the schoolbook (division-based) modular
    /// exponentiation — the pre-Montgomery implementation, kept as a
    /// test oracle.
    #[cfg(test)]
    fn sign_schoolbook_reference(&self, message: &[u8]) -> Result<Vec<u8>, RsaError> {
        let em = pkcs1_v15_encode(message, self.public.k)?;
        let m = BigUint::from_bytes_be(&em);
        let m1 = m.mod_pow_schoolbook(&self.d_p, &self.p);
        let m2 = m.mod_pow_schoolbook(&self.d_q, &self.q);
        let s = self.crt_combine(m1, m2);
        s.to_bytes_be_padded(self.public.k)
            .ok_or(RsaError::VerificationFailed)
    }

    /// RSA private operation via the Chinese Remainder Theorem:
    /// roughly 4x faster than a full-width exponentiation.
    fn private_op_crt(&self, m: &BigUint) -> BigUint {
        let m1 = self.ctx_p.pow(m, &self.d_p);
        let m2 = self.ctx_q.pow(m, &self.d_q);
        self.crt_combine(m1, m2)
    }

    /// Garner recombination `m2 + q · (q_inv · (m1 - m2) mod p)`.
    fn crt_combine(&self, m1: BigUint, m2: BigUint) -> BigUint {
        // h = q_inv * (m1 - m2) mod p
        let diff = if m1 >= m2 {
            (&m1 - &m2).rem(&self.p)
        } else {
            // (m1 - m2) mod p with m2 > m1
            let d = (&m2 - &m1).rem(&self.p);
            if d.is_zero() {
                d
            } else {
                &self.p - &d
            }
        };
        let h = self.q_inv.mul_mod(&diff, &self.p);
        &m2 + &(&h * &self.q)
    }
}

/// EMSA-PKCS1-v1_5 encoding of the SHA-256 hash of `message` into `k` bytes.
fn pkcs1_v15_encode(message: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    let hash = Sha256::digest(message);
    let t_len = SHA256_DIGEST_INFO.len() + hash.len();
    if k < t_len + 11 {
        return Err(RsaError::ModulusTooSmall);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(&hash);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_key() -> RsaPrivateKey {
        let mut rng = StdRng::seed_from_u64(7);
        RsaPrivateKey::generate(512, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let sig = key.sign(b"hello world").unwrap();
        assert_eq!(sig.len(), key.public_key().signature_len());
        key.public_key().verify(b"hello world", &sig).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let key = test_key();
        let sig = key.sign(b"original message").unwrap();
        assert_eq!(
            key.public_key().verify(b"tampered message", &sig),
            Err(RsaError::VerificationFailed)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = test_key();
        let mut sig = key.sign(b"msg").unwrap();
        sig[10] ^= 0x01;
        assert_eq!(
            key.public_key().verify(b"msg", &sig),
            Err(RsaError::VerificationFailed)
        );
    }

    #[test]
    fn wrong_length_signature_rejected() {
        let key = test_key();
        let err = key.public_key().verify(b"msg", &[0u8; 10]).unwrap_err();
        assert!(matches!(err, RsaError::BadSignatureLength { .. }));
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let key = test_key();
        for msg in [&b"a"[..], b"bb", b"a longer message with entropy 12345"] {
            assert_eq!(key.sign(msg).unwrap(), key.sign_no_crt(msg).unwrap());
        }
    }

    #[test]
    fn schoolbook_reference_paths_match_fast_paths() {
        // The pre-Montgomery oracles must stay byte-identical to the
        // shipping (Montgomery) implementations.
        let key = test_key();
        let sig = key.sign(b"reference check").unwrap();
        assert_eq!(
            key.sign_schoolbook_reference(b"reference check").unwrap(),
            sig
        );
        key.public_key()
            .verify_schoolbook_reference(b"reference check", &sig)
            .unwrap();
        assert!(key
            .public_key()
            .verify_schoolbook_reference(b"other message", &sig)
            .is_err());
    }

    #[test]
    fn verify_rejects_negated_and_degenerate_signatures() {
        // Boyd–Pavlovski regression: σ′ = n − σ satisfies σ′ᵉ ≡ −em, an
        // order-2 deviation that slips through a randomized product
        // combination of signatures with probability 1/2 (and two of
        // them cancel with probability 1). Checking each signature on
        // its own must reject it every time, as it must the degenerate
        // σ ∈ {0, 1} and the out-of-range σ = n.
        let key = test_key();
        let public = key.public_key();
        let k = public.signature_len();
        let n = &public.n;
        for i in 0..4 {
            let msg = format!("signed message #{i}").into_bytes();
            let sig = key.sign(&msg).unwrap();
            public.verify(&msg, &sig).unwrap();
            let negated = (n - &BigUint::from_bytes_be(&sig))
                .to_bytes_be_padded(k)
                .unwrap();
            let degenerate = [BigUint::zero(), BigUint::one(), n.clone()]
                .map(|s| s.to_bytes_be_padded(k).unwrap());
            for forged in std::iter::once(&negated).chain(&degenerate) {
                assert_eq!(
                    public.verify(&msg, forged),
                    Err(RsaError::VerificationFailed),
                    "message #{i}"
                );
            }
        }
    }

    #[test]
    fn signatures_differ_across_messages() {
        let key = test_key();
        assert_ne!(key.sign(b"m1").unwrap(), key.sign(b"m2").unwrap());
    }

    #[test]
    fn wrong_key_rejected() {
        let key1 = test_key();
        let mut rng = StdRng::seed_from_u64(99);
        let key2 = RsaPrivateKey::generate(512, &mut rng);
        let sig = key1.sign(b"msg").unwrap();
        assert!(key2.public_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let key = test_key();
        let bytes = key.public_key().to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&back, key.public_key());
        let sig = key.sign(b"serialized key path").unwrap();
        back.verify(b"serialized key path", &sig).unwrap();
    }

    #[test]
    fn public_key_deserialization_rejects_garbage() {
        assert!(RsaPublicKey::from_bytes(&[]).is_none());
        assert!(RsaPublicKey::from_bytes(&[1, 2, 3]).is_none());
        let mut valid = test_key().public_key().to_bytes();
        valid.push(0); // trailing junk
        assert!(RsaPublicKey::from_bytes(&valid).is_none());
    }

    #[test]
    fn paper_sized_key() {
        // Table 1: |sign| = 1024 bits = 128 bytes.
        let mut rng = StdRng::seed_from_u64(42);
        let key = RsaPrivateKey::generate(1024, &mut rng);
        assert_eq!(key.public_key().signature_len(), 128);
        let sig = key.sign(b"paper-scale signature").unwrap();
        assert_eq!(sig.len(), 128);
        key.public_key()
            .verify(b"paper-scale signature", &sig)
            .unwrap();
    }
}
