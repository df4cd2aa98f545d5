//! The one bounded byte codec: every wire frame, verification object,
//! snapshot section and index record is read through [`Reader`] and
//! written through [`Writer`], little-endian throughout.
//!
//! A [`Reader`] reads **attacker bytes**: a read past the end is
//! [`CodecError::Truncated`], a count the remaining bytes could not hold
//! is refused before anything is allocated (`Reader::checked_count`),
//! and pre-allocations are clamped to `PREALLOC_CLAMP`. A [`Writer`]
//! refuses a length its prefix cannot carry instead of truncating it.

use authsearch_crypto::{Digest, DIGEST_LEN};
use std::fmt;

/// Upper bound on any single pre-allocation sized by decoded bytes;
/// longer collections grow as they are read.
pub(crate) const PREALLOC_CLAMP: usize = 1 << 16;

/// Clamp a length read from untrusted bytes to a safe capacity.
#[inline]
pub(crate) fn capped(len: usize) -> usize {
    len.min(PREALLOC_CLAMP)
}

/// A malformed byte string on read, or an unrepresentable length on
/// write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes end before the field being read does.
    Truncated,
    /// Bytes remain after the last field.
    Trailing,
    /// A count claims more elements than the remaining bytes could
    /// hold; the message names it.
    Count(String),
    /// `(field, len, max)`: a length exceeds what its prefix carries.
    TooLong(&'static str, usize, usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated"),
            CodecError::Trailing => write!(f, "trailing bytes"),
            CodecError::Count(why) => write!(f, "{why}"),
            CodecError::TooLong(field, len, max) => write!(f, "{field} of {len} exceeds {max}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Parse the whole of `bytes` with `parse`; bytes left over are
/// [`CodecError::Trailing`].
pub fn read_all<'a, T, E: From<CodecError>>(
    bytes: &'a [u8],
    parse: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
) -> Result<T, E> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let value = parse(&mut r)?;
    match r.remaining() {
        0 => Ok(value),
        _ => Err(CodecError::Trailing.into()),
    }
}

/// A bounds-checked cursor over a byte string.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// An appending writer over a caller's buffer.
#[derive(Debug)]
pub struct Writer<'a>(pub &'a mut Vec<u8>);

macro_rules! numbers {
    ($($t:ident),*) => {
        impl Reader<'_> {
            $(
                #[doc = concat!("Read a `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self) -> Result<$t, CodecError> {
                    Ok($t::from_le_bytes(self.array()?))
                }
            )*
        }
        impl Writer<'_> {
            $(
                #[doc = concat!("Append a `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self, v: $t) {
                    self.bytes(&v.to_le_bytes());
                }
            )*
        }
    };
}

numbers!(u8, u16, u32, u64, f64);

impl<'a> Reader<'a> {
    /// Bytes not yet read.
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Read `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Read exactly `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let bytes = self.bytes(N)?;
        bytes.try_into().map_err(|_| CodecError::Truncated)
    }

    /// Read one digest.
    #[inline]
    pub fn digest(&mut self) -> Result<Digest, CodecError> {
        Ok(Digest(self.array()?))
    }

    /// Read a `u16` length, then that many bytes.
    #[inline]
    pub fn bytes16(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u16()?;
        self.bytes(n.into())
    }

    /// Read a `u32` length, then that many bytes.
    #[inline]
    pub fn bytes32(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()?;
        self.bytes(n as usize)
    }

    /// Check a claimed count of elements, each at least `per` bytes
    /// long, against the bytes remaining: a claim they could not hold is
    /// a forgery, refused before anything is allocated for it.
    #[inline]
    pub(crate) fn checked_count(
        &self,
        claimed: u64,
        per: usize,
        what: &str,
    ) -> Result<usize, CodecError> {
        let remaining = self.remaining();
        match usize::try_from(claimed) {
            Ok(n) if n <= remaining / per.max(1) => Ok(n),
            _ => Err(CodecError::Count(format!(
                "{what} count {claimed} exceeds what the remaining {remaining} bytes can hold"
            ))),
        }
    }

    /// Read `claimed` elements of at least `per` bytes each with `read`,
    /// once `Reader::checked_count` has passed the claim.
    #[inline]
    pub fn list<T, E: From<CodecError>>(
        &mut self,
        claimed: u64,
        per: usize,
        what: &str,
        mut read: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.checked_count(claimed, per, what)?;
        let mut out = Vec::with_capacity(capped(n));
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Read `claimed` digests.
    #[inline]
    pub fn digests(&mut self, claimed: u64, what: &str) -> Result<Vec<Digest>, CodecError> {
        self.list(claimed, DIGEST_LEN, what, Reader::digest)
    }
}

impl Writer<'_> {
    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    /// Append digests, without a count.
    #[inline]
    pub fn digests(&mut self, ds: &[Digest]) {
        for d in ds {
            self.bytes(d.as_bytes());
        }
    }

    /// Append a `u16` length, refusing one it cannot carry.
    #[inline]
    pub fn len16(&mut self, n: usize, field: &'static str) -> Result<(), CodecError> {
        let v = u16::try_from(n).map_err(|_| CodecError::TooLong(field, n, u16::MAX.into()))?;
        self.u16(v);
        Ok(())
    }

    /// Append a `u32` length, refusing one it cannot carry.
    #[inline]
    pub fn len32(&mut self, n: usize, field: &'static str) -> Result<(), CodecError> {
        let v = u32::try_from(n).map_err(|_| CodecError::TooLong(field, n, u32::MAX as usize))?;
        self.u32(v);
        Ok(())
    }

    /// Append a `u16` length, then the bytes.
    #[inline]
    pub fn bytes16(&mut self, b: &[u8], field: &'static str) -> Result<(), CodecError> {
        self.len16(b.len(), field)?;
        self.bytes(b);
        Ok(())
    }

    /// Append a `u32` length, then the bytes.
    #[inline]
    pub fn bytes32(&mut self, b: &[u8], field: &'static str) -> Result<(), CodecError> {
        self.len32(b.len(), field)?;
        self.bytes(b);
        Ok(())
    }

    /// Append a `u16` count, then the digests.
    #[inline]
    pub fn digests16(&mut self, ds: &[Digest], field: &'static str) -> Result<(), CodecError> {
        self.len16(ds.len(), field)?;
        self.digests(ds);
        Ok(())
    }

    /// Append what `write` writes behind a `u32` prefix holding its
    /// length, patched in once known: nothing is staged or copied.
    #[inline]
    pub fn prefixed32<E: From<CodecError>>(
        &mut self,
        field: &'static str,
        write: impl FnOnce(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        let at = self.0.len();
        self.u32(0);
        write(self)?;
        let n = self.0.len() - at - 4;
        let v = u32::try_from(n).map_err(|_| CodecError::TooLong(field, n, u32::MAX as usize))?;
        if let Some(prefix) = self.0.get_mut(at..at + 4) {
            prefix.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(buf: &[u8]) -> Reader<'_> {
        Reader { buf, pos: 0 }
    }

    #[test]
    fn checked_count_rejects_forgeries() {
        let payload = [0u8; 64];
        let r = reader(&payload);
        assert_eq!(r.checked_count(8, 8, "roots").unwrap(), 8);
        assert_eq!(
            r.checked_count(9, 8, "roots").unwrap_err().to_string(),
            "roots count 9 exceeds what the remaining 64 bytes can hold"
        );
        assert!(r.checked_count(u64::MAX, 1, "bytes").is_err());
        // Zero-size elements cannot divide by zero.
        assert_eq!(r.checked_count(64, 0, "units").unwrap(), 64);
    }

    #[test]
    fn a_forged_count_allocates_nothing() {
        // 2^32 - 1 claimed digests over 20 bytes: refused before the
        // list is allocated, naming the count.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut r = reader(&bytes);
        let n = r.u32().unwrap();
        let e = r.digests(n.into(), "digest list").unwrap_err();
        assert_eq!(
            e.to_string(),
            "digest list count 4294967295 exceeds what the remaining 16 bytes can hold"
        );
    }

    #[test]
    fn every_read_past_the_end_is_truncated() {
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        for cut in 0..bytes.len() {
            let part = &bytes[..cut];
            assert_eq!(reader(part).u64().is_err(), cut < 8);
            assert_eq!(reader(part).u32().is_err(), cut < 4);
            assert_eq!(
                reader(part).bytes(cut + 1).unwrap_err(),
                CodecError::Truncated
            );
        }
        assert_eq!(
            reader(&bytes).bytes(usize::MAX).unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn read_all_rejects_trailing_bytes() {
        let payload = [1u8, 2, 3, 4, 5];
        let u32_of = |b| read_all(b, Reader::u32);
        assert_eq!(u32_of(&payload), Err(CodecError::Trailing));
        assert_eq!(u32_of(&payload[..4]), Ok(u32::from_le_bytes([1, 2, 3, 4])));
    }

    #[test]
    fn writes_read_back() {
        let mut buf = Vec::new();
        let mut w = Writer(&mut buf);
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.5);
        w.bytes(Digest::hash(b"x").as_bytes());
        w.bytes16(b"abc", "text").unwrap();
        w.bytes32(b"de", "blob").unwrap();
        w.digests16(&[Digest::ZERO; 2], "digests").unwrap();
        w.prefixed32::<CodecError>("nested", |w| {
            w.u32(9);
            Ok(())
        })
        .unwrap();
        let parsed = read_all(&buf, |r| {
            Ok::<_, CodecError>((
                r.u8()?,
                r.u16()?,
                r.u32()?,
                r.u64()?,
                r.f64()?,
                r.digest()?,
                r.bytes16()?,
                r.bytes32()?,
                {
                    let n = r.u16()?;
                    r.digests(n.into(), "digests")?
                },
                r.bytes32()?,
            ))
        })
        .unwrap();
        assert_eq!(
            parsed,
            (
                7,
                0xBEEF,
                0xDEAD_BEEF,
                u64::MAX - 1,
                -0.5,
                Digest::hash(b"x"),
                &b"abc"[..],
                &b"de"[..],
                vec![Digest::ZERO; 2],
                &9u32.to_le_bytes()[..],
            )
        );
    }

    #[test]
    fn lengths_past_their_prefix_are_refused() {
        let mut buf = Vec::new();
        let mut w = Writer(&mut buf);
        assert_eq!(
            w.bytes16(&vec![0; 1 << 16], "text").unwrap_err(),
            CodecError::TooLong("text", 1 << 16, u16::MAX as usize)
        );
        w.len16(u16::MAX as usize, "text").unwrap();
        assert_eq!(buf, [0xFF, 0xFF]);
    }
}
