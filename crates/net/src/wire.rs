//! Primitive binary encoders/decoders the message codec is built from.
//!
//! Everything is little-endian; floats travel as their IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so a value decodes to *exactly* the
//! bits that were encoded — the property the workspace's bit-reproducibility
//! contract extends across hosts. Collection lengths are `u64`; strings are
//! length-prefixed UTF-8.

use fuse_tensor::codec::{decode_f32s, encode_f32s};

use crate::error::NetError;
use crate::Result;

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Finishes writing and takes the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern, little-endian.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed `f32` slice (bit patterns).
    pub fn f32_slice(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        encode_f32s(&mut self.buf, v);
    }
}

/// Cursor-based binary reader over a borrowed buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails unless every byte was consumed — decoders call this last so a
    /// structurally valid prefix followed by garbage is an error, not a
    /// silently ignored tail.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(NetError::Decode(format!(
                "{} trailing bytes after a complete message",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(NetError::Truncated { what });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("sliced to 4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("sliced to 8 bytes")))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that do
    /// not fit (or that exceed the remaining buffer when used as a length —
    /// callers pass lengths through [`Reader::len_prefix`] instead).
    pub fn usize(&mut self, what: &'static str) -> Result<usize> {
        usize::try_from(self.u64(what)?)
            .map_err(|_| NetError::Decode(format!("{what} does not fit in usize")))
    }

    /// Reads a length prefix that will be used to read `unit`-byte items,
    /// validating it against the bytes actually remaining so a corrupt
    /// length cannot trigger a giant allocation.
    pub fn len_prefix(&mut self, unit: usize, what: &'static str) -> Result<usize> {
        let len = self.usize(what)?;
        if len.checked_mul(unit.max(1)).is_none_or(|total| total > self.remaining()) {
            return Err(NetError::Truncated { what });
        }
        Ok(len)
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self, what: &'static str) -> Result<f32> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String> {
        let len = self.len_prefix(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| NetError::Decode(format!("{what} is not UTF-8: {e}")))
    }

    /// Reads a length-prefixed byte blob.
    pub fn blob(&mut self, what: &'static str) -> Result<Vec<u8>> {
        Ok(self.blob_ref(what)?.to_vec())
    }

    /// Reads a length-prefixed byte blob without copying it.
    pub fn blob_ref(&mut self, what: &'static str) -> Result<&'a [u8]> {
        let len = self.len_prefix(1, what)?;
        self.take(len, what)
    }

    /// Reads a length-prefixed `f32` slice (bit patterns).
    pub fn f32_vec(&mut self, what: &'static str) -> Result<Vec<f32>> {
        let len = self.len_prefix(4, what)?;
        Ok(decode_f32s(self.take(4 * len, what)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f32(-0.0);
        w.f32(f32::from_bits(0x7f80_0001)); // a signalling NaN pattern
        w.f64(std::f64::consts::PI);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        w.f32_slice(&[1.5, -2.25]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.f32("d").unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f32("e").unwrap().to_bits(), 0x7f80_0001);
        assert_eq!(r.f64("f").unwrap(), std::f64::consts::PI);
        assert_eq!(r.str("g").unwrap(), "héllo");
        assert_eq!(r.blob("h").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.f32_vec("i").unwrap(), vec![1.5, -2.25]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let mut w = Writer::new();
        w.u64(5);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes[..4]);
        assert_eq!(r.u64("word").unwrap_err(), NetError::Truncated { what: "word" });

        // A corrupt length prefix larger than the remaining buffer must not
        // allocate; it fails as truncation.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.blob("blob"), Err(NetError::Truncated { .. })));

        let mut r = Reader::new(&[0, 1, 2]);
        r.u8("x").unwrap();
        assert!(matches!(r.finish(), Err(NetError::Decode(_))));
    }
}
