//! Minimal binary encoding helpers for on-disk records.
//!
//! All on-disk structures in the store (log records, the object map, the
//! checkpoint superblock) are encoded with this little-endian, length-
//! prefixed format.  It is deliberately tiny: fixed-width integers, byte
//! strings, and checksummed frames.

/// Writer for the on-disk encoding.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_bytes_padded(v, v.len())
    }

    /// Appends a length-prefixed byte string of `len` bytes: `v`, then
    /// zeros written straight into the buffer (`v.len() <= len`).
    pub fn put_bytes_padded(&mut self, v: &[u8], len: usize) -> &mut Self {
        self.put_u64(len as u64);
        self.buf.extend_from_slice(v);
        self.buf.resize(self.buf.len() + (len - v.len()), 0);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Finishes encoding, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns true if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Errors produced while decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the expected field.
    UnexpectedEnd,
    /// A length prefix exceeded the remaining input.
    BadLength,
    /// A checksum did not match.
    BadChecksum,
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::BadLength => write!(f, "length prefix exceeds input"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reader for the on-disk encoding.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte string, lent from the input.
    pub fn get_slice(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u64()? as usize;
        if len > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        self.take(len)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        Ok(self.get_slice()?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string, lent from the input.
    pub fn get_str_slice(&mut self) -> Result<&'a str, DecodeError> {
        core::str::from_utf8(self.get_slice()?).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        Ok(self.get_str_slice()?.to_owned())
    }
}

/// A simple 64-bit FNV-1a checksum used to detect torn or corrupt records.
pub fn checksum(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Wraps a payload in a checksummed frame: `len || payload || checksum`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_bytes(payload);
    e.put_u64(checksum(payload));
    e.finish()
}

/// Unwraps a frame produced by [`frame`], verifying its checksum.  Returns
/// the payload, lent from `data`, and the number of bytes consumed.
pub fn unframe(data: &[u8]) -> Result<(&[u8], usize), DecodeError> {
    let mut d = Decoder::new(data);
    let payload = d.get_slice()?;
    let sum = d.get_u64()?;
    if checksum(payload) != sum {
        return Err(DecodeError::BadChecksum);
    }
    Ok((payload, d.pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7)
            .put_u32(0xdead_beef)
            .put_u64(u64::MAX)
            .put_str("hello");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_str().unwrap(), "hello");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn decode_errors() {
        let mut d = Decoder::new(&[1, 2]);
        assert_eq!(d.get_u32(), Err(DecodeError::UnexpectedEnd));
        // A length prefix longer than the buffer is rejected.
        let mut e = Encoder::new();
        e.put_u64(1_000_000);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_bytes(), Err(DecodeError::BadLength));
    }

    #[test]
    fn frame_round_trip_and_corruption_detection() {
        let payload = b"the quick brown fox".to_vec();
        let framed = frame(&payload);
        let (out, consumed) = unframe(&framed).unwrap();
        assert_eq!(out, payload);
        assert_eq!(consumed, framed.len());

        let mut corrupted = framed.clone();
        let idx = corrupted.len() / 2;
        corrupted[idx] ^= 0xff;
        assert!(matches!(
            unframe(&corrupted),
            Err(DecodeError::BadChecksum)
                | Err(DecodeError::BadLength)
                | Err(DecodeError::UnexpectedEnd)
        ));
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn bad_utf8_is_reported() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_str(), Err(DecodeError::BadUtf8));
    }
}
