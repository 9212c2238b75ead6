//! LSB-first bit I/O as DEFLATE requires (RFC 1951 §3.1.1).
//!
//! Data elements are packed starting from the least significant bit of each
//! byte. Huffman codes are written most-significant-bit first *of the code*,
//! which callers achieve by reversing the code bits before calling
//! [`BitWriter::write_bits`].

/// Accumulates bits into a byte vector.
#[derive(Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bit accumulator; bits fill from the LSB.
    acc: u64,
    /// Number of valid bits in `acc` (always < 8 after `flush_bytes`).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `n` bits of `value` (LSB first). `n` must be ≤ 32.
    #[inline]
    pub fn write_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || (value as u64) < (1u64 << n));
        self.acc |= (value as u64) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Pads with zero bits to the next byte boundary (used before stored
    /// blocks and at stream end).
    pub fn align_byte(&mut self) {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Appends raw bytes; caller must be byte-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.nbits, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Number of complete bytes emitted so far plus any partial byte.
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + self.nbits as u64
    }

    /// Finishes the stream (byte-aligns) and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// Error produced when a reader runs past the end of input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfBits;

/// Reads bits LSB-first from a byte slice.
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to load.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
    }

    #[inline]
    fn refill(&mut self) {
        if self.pos + 8 <= self.data.len() {
            // Word path: one unaligned load, then take as many whole bytes
            // as fit. Masking (rather than OR-ing the full word) preserves
            // the invariant that bits above `nbits` in `acc` are zero, which
            // `peek` relies on for zero-padded lookahead at stream end.
            let take = ((63 - self.nbits) >> 3) as usize;
            if take > 0 {
                let w = u64::from_le_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
                self.acc |= (w & ((1u64 << (8 * take)) - 1)) << self.nbits;
                self.pos += take;
                self.nbits += 8 * take as u32;
            }
        } else {
            while self.nbits <= 56 && self.pos < self.data.len() {
                self.acc |= (self.data[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Refills if fewer than `n` bits are buffered; returns whether at
    /// least `n` bits are now available. Unlike [`read_bits`](Self::read_bits)
    /// this never errors — near stream end callers may go on to [`peek`]
    /// (zero-padded) and decide for themselves.
    ///
    /// [`peek`]: Self::peek
    #[inline]
    pub fn ensure(&mut self, n: u32) -> bool {
        if self.nbits < n {
            self.refill();
        }
        self.nbits >= n
    }

    /// Returns the next `n` bits (n ≤ 32) without consuming them. Bits past
    /// the end of input read as zero; callers use [`available`](Self::available)
    /// to tell padding from data.
    #[inline]
    pub fn peek(&self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        (self.acc & ((1u64 << n) - 1)) as u32
    }

    /// Discards `n` buffered bits. `n` must not exceed [`available`](Self::available).
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.nbits);
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Number of bits currently buffered (without refilling).
    #[inline]
    pub fn available(&self) -> u32 {
        self.nbits
    }

    /// Appends `n` raw bytes to `out` in one bulk copy; requires byte
    /// alignment. The fast-path equivalent of [`read_bytes`](Self::read_bytes)
    /// for stored DEFLATE blocks.
    pub fn read_slice_into(&mut self, n: usize, out: &mut Vec<u8>) -> Result<(), OutOfBits> {
        debug_assert_eq!(self.nbits % 8, 0);
        let mut n = n;
        out.reserve(n);
        while n > 0 && self.nbits > 0 {
            out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
            n -= 1;
        }
        if n > self.data.len() - self.pos {
            return Err(OutOfBits);
        }
        out.extend_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(())
    }

    /// Reads `n` bits (n ≤ 32), LSB-first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32, OutOfBits> {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(OutOfBits);
            }
        }
        let v = (self.acc & ((1u64 << n) - 1)) as u32;
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32, OutOfBits> {
        self.read_bits(1)
    }

    /// Discards bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Reads `n` raw bytes; requires byte alignment.
    pub fn read_bytes(&mut self, n: usize) -> Result<Vec<u8>, OutOfBits> {
        debug_assert_eq!(self.nbits % 8, 0);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.read_bits(8)? as u8);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bit_patterns() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(0b10110, 5);
        w.write_bits(0xABCD, 16);
        w.write_bits(0x3FFFFFFF, 30);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(2).unwrap(), 0b10);
        assert_eq!(r.read_bits(5).unwrap(), 0b10110);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.read_bits(30).unwrap(), 0x3FFFFFFF);
    }

    #[test]
    fn lsb_first_packing() {
        // RFC 1951: first bit written lands in the LSB of the first byte.
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // bit0 = 1
        w.write_bits(0, 1); // bit1 = 0
        w.write_bits(1, 1); // bit2 = 1
        assert_eq!(w.finish(), vec![0b0000_0101]);
    }

    #[test]
    fn align_and_raw_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_byte();
        w.write_bytes(&[0xDE, 0xAD]);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b11, 0xDE, 0xAD]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align_byte();
        assert_eq!(r.read_bytes(2).unwrap(), vec![0xDE, 0xAD]);
        assert_eq!(r.read_bits(1), Err(OutOfBits));
    }

    #[test]
    fn out_of_bits() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(1), Err(OutOfBits));
    }

    #[test]
    fn zero_bit_read() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn peek_consume_matches_read_bits() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        let mut a = BitReader::new(&data);
        let mut b = BitReader::new(&data);
        for n in [1u32, 3, 7, 8, 13, 16, 25, 32, 5, 2] {
            assert!(a.ensure(n));
            let peeked = a.peek(n);
            a.consume(n);
            assert_eq!(peeked, b.read_bits(n).unwrap());
        }
    }

    #[test]
    fn peek_zero_pads_past_end() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(!r.ensure(16));
        assert_eq!(r.available(), 8);
        // High 8 bits of the peek are padding zeros, not data.
        assert_eq!(r.peek(16), 0x00FF);
    }

    #[test]
    fn read_slice_into_bulk_and_buffered() {
        let data: Vec<u8> = (0..40u32).map(|i| i as u8).collect();
        let mut r = BitReader::new(&data);
        // Force bytes into the accumulator first, then byte-align.
        assert_eq!(r.read_bits(8).unwrap(), 0);
        assert!(r.ensure(32));
        let mut out = vec![0xEE];
        r.read_slice_into(30, &mut out).unwrap();
        assert_eq!(out[0], 0xEE);
        assert_eq!(&out[1..], &data[1..31]);
        r.read_slice_into(9, &mut out).unwrap();
        assert_eq!(&out[31..], &data[31..40]);
        assert_eq!(r.read_slice_into(1, &mut out), Err(OutOfBits));
    }

    #[test]
    fn bit_len_tracks_partial() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 11);
    }
}
