//! Little-endian byte-buffer primitives shared by every persisted
//! encoding: the manifest and snapshot payloads are hand-rolled
//! through these two types.

use crate::StoreError;

/// An append-only byte buffer with typed little-endian writers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern. Round
    /// trips are bit-identical, which is what makes reloaded
    /// snapshots answer queries exactly like the pre-restart world.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte slice (`u64` length + raw bytes).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Consumes the writer, returning the encoded buffer.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

/// A cursor over an encoded buffer with typed little-endian readers.
/// Every read is bounds-checked; running off the end or hitting an
/// invalid value yields [`StoreError::Corrupt`] instead of panicking,
/// so a truncated or damaged file surfaces as a recoverable error.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "short read: wanted {n} bytes at offset {} of {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> crate::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` encoded as one byte; anything but 0/1 is corrupt.
    pub fn bool(&mut self) -> crate::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StoreError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> crate::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> crate::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> crate::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> crate::Result<&'a [u8]> {
        let len = self.u64()?;
        let len = usize::try_from(len)
            .ok()
            .filter(|&len| len <= self.buf.len())
            .ok_or_else(|| StoreError::Corrupt(format!("implausible length {len}")))?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> crate::Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| StoreError::Corrupt("invalid UTF-8 string".into()))
    }

    /// Fails unless the buffer was consumed exactly — trailing bytes
    /// in a checksummed payload mean an encoder/decoder mismatch.
    pub fn finish(self) -> crate::Result<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(StoreError::Corrupt(format!(
                "{n} trailing bytes after payload"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::MIN_POSITIVE);
        w.bytes(b"raw\x00bytes");
        w.str("protein — GALT");
        let buf = w.into_inner();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.bytes().unwrap(), b"raw\x00bytes");
        assert_eq!(r.str().unwrap(), "protein — GALT");
        r.finish().unwrap();
    }

    #[test]
    fn short_reads_are_corrupt_not_panics() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.u64().is_err());
        let mut w = Writer::new();
        w.str("hello");
        let buf = w.into_inner();
        let mut r = Reader::new(&buf[..buf.len() - 1]);
        assert!(r.str().is_err());
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // a length prefix no buffer can satisfy
        let buf = w.into_inner();
        assert!(Reader::new(&buf).bytes().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let buf = w.into_inner();
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut r = Reader::new(&[7]);
        assert!(r.bool().is_err());
    }
}
