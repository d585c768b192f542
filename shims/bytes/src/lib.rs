//! Minimal stand-in for the `bytes` crate: a growable byte buffer plus the
//! little-endian `Buf`/`BufMut` accessors the workspace codecs use.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};

/// A growable, contiguous byte buffer (thin wrapper over `Vec<u8>`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { inner: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { inner: Vec::with_capacity(cap) }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.clone()
    }

    /// Appends raw bytes.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut { inner: v }
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(buf: BytesMut) -> Self {
        buf.inner
    }
}

/// Write-side accessors (little-endian).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a `u32`, little-endian.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`, little-endian.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read-side cursor accessors (little-endian). Implemented for `&[u8]`,
/// which is consumed from the front as values are read.
///
/// # Panics
///
/// Like the real crate, accessors panic when fewer bytes remain than the
/// read requires; callers bounds-check with [`Buf::remaining`] / `len()`.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Discards the next `n` bytes.
    fn advance(&mut self, n: usize);

    /// Copies `dst.len()` bytes out, consuming them.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a `u32`, little-endian.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a `u64`, little-endian.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads an `i64`, little-endian.
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }

    /// Reads an `f64`, little-endian.
    fn get_f64_le(&mut self) -> f64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        f64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(7);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(u64::MAX - 3);
        buf.put_i64_le(-42);
        buf.put_f64_le(1.5);
        buf.put_slice(b"xyz");
        let mut cursor: &[u8] = &buf;
        assert_eq!(cursor.get_u8(), 7);
        assert_eq!(cursor.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cursor.get_u64_le(), u64::MAX - 3);
        assert_eq!(cursor.get_i64_le(), -42);
        assert_eq!(cursor.get_f64_le(), 1.5);
        assert_eq!(cursor.remaining(), 3);
        cursor.advance(1);
        assert_eq!(cursor, b"yz");
    }
}
