//! Minimal little-endian byte encoding for the `.fsidx` format.
//!
//! The format is hand-rolled so the on-disk layout is an
//! explicit, versioned contract: every field below is written in
//! little-endian order exactly as documented in `DESIGN.md`.

/// Growable little-endian byte sink.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` values are stored as the IEEE-754 bit pattern, so NaN
    /// payloads and signed zeros round-trip bit-for-bit.
    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed UTF-8 string (`u32` byte length + bytes).
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.raw(s.as_bytes());
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian cursor over a byte slice.
///
/// Every read returns `Err(())` on underrun; the caller maps that to a
/// descriptive decode error. A trailing-garbage check is available via
/// [`ByteReader::remaining`].
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ()> {
        if self.remaining() < n {
            return Err(());
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ()> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ()> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ()> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ()> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i32(&mut self) -> Result<i32, ()> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// `f64` values travel as raw bit patterns (see [`ByteWriter::f64`]);
    /// the hot decode paths bulk-convert instead, so this scalar form
    /// only serves tests and one-off fields.
    #[cfg(test)]
    pub(crate) fn f64(&mut self) -> Result<f64, ()> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    /// Length-prefixed UTF-8 string; rejects invalid UTF-8.
    pub(crate) fn str(&mut self) -> Result<&'a str, ()> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::with_capacity(64);
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.i32(-12345);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(r.i32(), Ok(-12345));
        let z = r.f64().unwrap();
        assert!(z == 0.0 && z.is_sign_negative());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err());
    }

    #[test]
    fn reader_rejects_underruns_and_bad_utf8() {
        let mut r = ByteReader::new(&[0x01, 0x02]);
        assert!(r.u32().is_err());
        // A failed read must not advance the cursor.
        assert_eq!(r.u16(), Ok(0x0201));

        // Length prefix says 2 bytes, payload is invalid UTF-8.
        let mut w = ByteWriter::default();
        w.u32(2);
        w.raw(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).str().is_err());

        // Length prefix overruns the buffer.
        let mut w = ByteWriter::default();
        w.u32(100);
        w.raw(b"short");
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).str().is_err());
    }
}
