//! Canonical, length-limited Huffman codes.
//!
//! DEFLATE transmits only code *lengths*; both sides derive the canonical
//! codes from them (RFC 1951 §3.2.2). The encoder assigns optimal
//! length-limited lengths with the package-merge algorithm (alphabet sizes
//! here are ≤ 288 and limits ≤ 15, so the O(n·L) cost is negligible), and
//! the decoder walks the canonical first-code/count tables bit by bit.

use crate::bitio::{BitReader, OutOfBits};

/// Assigns optimal code lengths for `freqs` limited to `max_len` bits.
///
/// Returns a length per symbol (0 for unused symbols). Symbols with nonzero
/// frequency always receive a nonzero length. Panics if the alphabet cannot
/// fit in `max_len` bits (needs `2^max_len` ≥ used symbols).
pub fn limited_code_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u8; freqs.len()];
    match used.len() {
        0 => return lengths,
        1 => {
            lengths[used[0]] = 1;
            return lengths;
        }
        n => assert!((1usize << max_len) >= n, "alphabet too large for length limit"),
    }

    // Package-merge. Each coin is (weight, symbols-it-contains).
    #[derive(Clone)]
    struct Coin {
        weight: u64,
        syms: Vec<u16>,
    }
    let mut base: Vec<Coin> = used
        .iter()
        .map(|&s| Coin { weight: freqs[s], syms: vec![s as u16] })
        .collect();
    base.sort_by_key(|c| c.weight);

    let mut row = base.clone();
    for _ in 1..max_len {
        // Package: pair up adjacent coins of the previous row.
        let mut packaged: Vec<Coin> = Vec::with_capacity(row.len() / 2);
        let mut it = row.chunks_exact(2);
        for pair in &mut it {
            let mut syms = pair[0].syms.clone();
            syms.extend_from_slice(&pair[1].syms);
            packaged.push(Coin { weight: pair[0].weight + pair[1].weight, syms });
        }
        // Merge with the base coins, keeping sorted order.
        let mut merged = Vec::with_capacity(base.len() + packaged.len());
        let (mut i, mut j) = (0, 0);
        while i < base.len() || j < packaged.len() {
            let take_base = j >= packaged.len()
                || (i < base.len() && base[i].weight <= packaged[j].weight);
            if take_base {
                merged.push(base[i].clone());
                i += 1;
            } else {
                merged.push(packaged[j].clone());
                j += 1;
            }
        }
        row = merged;
    }

    // The first 2n-2 coins of the final row determine the lengths: a
    // symbol's code length is the number of coins containing it.
    for coin in row.iter().take(2 * used.len() - 2) {
        for &s in &coin.syms {
            lengths[s as usize] += 1;
        }
    }
    lengths
}

/// Derives canonical codes from lengths (§3.2.2). `codes[i]` holds the code
/// for symbol `i`, already **bit-reversed** so it can be written LSB-first
/// by [`crate::bitio::BitWriter::write_bits`].
pub fn canonical_codes(lengths: &[u8]) -> Vec<u16> {
    let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
    let mut bl_count = vec![0u16; max_len + 1];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u16; max_len + 2];
    let mut code = 0u16;
    for bits in 1..=max_len {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                reverse_bits(c, l)
            }
        })
        .collect()
}

/// Reverses the low `n` bits of `v`.
#[inline]
fn reverse_bits(v: u16, n: u8) -> u16 {
    let mut r = 0u16;
    let mut v = v;
    for _ in 0..n {
        r = (r << 1) | (v & 1);
        v >>= 1;
    }
    r
}

/// Error for invalid Huffman tables or streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HuffError {
    /// The code-length set over- or under-subscribes the code space.
    InvalidLengths,
    /// Ran out of input while decoding.
    Truncated,
    /// A code was read that no symbol maps to.
    BadCode,
}

impl From<OutOfBits> for HuffError {
    fn from(_: OutOfBits) -> Self {
        HuffError::Truncated
    }
}

/// Canonical Huffman decoder (puff-style counts/offsets walk).
#[derive(Debug)]
pub struct Decoder {
    /// count[l] = number of codes of length l.
    count: Vec<u16>,
    /// Symbols sorted by (length, symbol order).
    symbols: Vec<u16>,
    max_len: u8,
}

impl Decoder {
    /// Builds a decoder from code lengths.
    ///
    /// Accepts complete codes and the degenerate one-symbol code. An
    /// over-subscribed set (Kraft sum > 1) is rejected; an incomplete set is
    /// also rejected, except for the single-code case DEFLATE allows for
    /// distance trees.
    pub fn new(lengths: &[u8]) -> Result<Decoder, HuffError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return Err(HuffError::InvalidLengths);
        }
        let mut count = vec![0u16; max_len as usize + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        // Kraft check.
        let mut left: i64 = 1;
        for &c in &count[1..=max_len as usize] {
            left <<= 1;
            left -= c as i64;
            if left < 0 {
                return Err(HuffError::InvalidLengths);
            }
        }
        let total: u32 = count.iter().map(|&c| c as u32).sum();
        if left > 0 && total != 1 {
            // Incomplete code with more than one symbol: reject. (The
            // single-symbol case arises from our own encoder for degenerate
            // distance trees and is tolerated like zlib does.)
            return Err(HuffError::InvalidLengths);
        }

        // offsets[l] = index of first symbol of length l in `symbols`.
        let mut offsets = vec![0u16; max_len as usize + 2];
        for l in 1..=max_len as usize {
            offsets[l + 1] = offsets[l] + count[l];
        }
        let mut symbols = vec![0u16; total as usize];
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                symbols[offsets[l as usize + 1] as usize - count[l as usize] as usize] = sym as u16;
                count[l as usize] -= 1;
            }
        }
        // `count` was consumed as a cursor; rebuild it.
        let mut count = vec![0u16; max_len as usize + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        Ok(Decoder { count, symbols, max_len })
    }

    /// Decodes one symbol from `r`.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, HuffError> {
        let mut code: u32 = 0;
        let mut first: u32 = 0;
        let mut index: u32 = 0;
        for len in 1..=self.max_len as usize {
            code |= r.read_bit()?;
            let cnt = self.count[len] as u32;
            if code < first + cnt {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += cnt;
            first = (first + cnt) << 1;
            code <<= 1;
        }
        Err(HuffError::BadCode)
    }
}

/// Root-table width for [`TableDecoder`]. Codes up to this length decode in
/// a single lookup; longer codes chain through one subtable.
const PRIMARY_BITS: u32 = 10;

/// Flag bit marking a primary entry as a link to a subtable.
const LINK: u32 = 0x8000_0000;

/// Table-driven canonical Huffman decoder: a `1 << PRIMARY_BITS` root table
/// plus second-level subtables for codes longer than [`PRIMARY_BITS`].
///
/// Entries are `u32`s: a direct entry packs `(symbol << 16) | code_len`; a
/// link entry sets [`LINK`] and packs `(subtable_base << 8) | subtable_bits`.
/// Unreachable patterns (holes in incomplete codes) stay zero and decode to
/// [`HuffError::BadCode`]. Accepts exactly the length sets [`Decoder::new`]
/// accepts and returns the same error kinds [`Decoder::decode`] would, so
/// the two are interchangeable; this one trades build cost for a decode
/// that touches at most two table entries instead of one branch per bit.
#[derive(Debug)]
pub struct TableDecoder {
    primary: Vec<u32>,
    sub: Vec<u32>,
    max_len: u8,
}

impl TableDecoder {
    /// Builds the lookup tables from code lengths. Validation is identical
    /// to [`Decoder::new`]: over-subscribed sets and incomplete sets (other
    /// than the single-symbol degenerate code) are rejected.
    pub fn new(lengths: &[u8]) -> Result<TableDecoder, HuffError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return Err(HuffError::InvalidLengths);
        }
        let mut count = vec![0u32; max_len as usize + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut left: i64 = 1;
        for &c in &count[1..=max_len as usize] {
            left <<= 1;
            left -= c as i64;
            if left < 0 {
                return Err(HuffError::InvalidLengths);
            }
        }
        let total: u32 = count.iter().sum();
        if left > 0 && total != 1 {
            return Err(HuffError::InvalidLengths);
        }

        let codes = canonical_codes(lengths);
        let mut primary = vec![0u32; 1 << PRIMARY_BITS];
        let mut sub: Vec<u32> = Vec::new();

        // Short codes stride-fill the root table directly.
        for (sym, &len) in lengths.iter().enumerate() {
            let len = len as u32;
            if len == 0 || len > PRIMARY_BITS {
                continue;
            }
            let entry = ((sym as u32) << 16) | len;
            let mut idx = codes[sym] as usize;
            while idx < (1 << PRIMARY_BITS) {
                primary[idx] = entry;
                idx += 1 << len;
            }
        }

        if max_len as u32 > PRIMARY_BITS {
            // Long codes: group by their low PRIMARY_BITS (the first bits on
            // the wire — `canonical_codes` is already LSB-first), size each
            // prefix's subtable by its deepest code, then stride-fill.
            let mut sub_max = vec![0u8; 1 << PRIMARY_BITS];
            for (sym, &len) in lengths.iter().enumerate() {
                if (len as u32) > PRIMARY_BITS {
                    let prefix = (codes[sym] as usize) & ((1 << PRIMARY_BITS) - 1);
                    sub_max[prefix] = sub_max[prefix].max(len);
                }
            }
            let mut base = vec![0u32; 1 << PRIMARY_BITS];
            for prefix in 0..1usize << PRIMARY_BITS {
                if sub_max[prefix] == 0 {
                    continue;
                }
                let sub_bits = sub_max[prefix] as u32 - PRIMARY_BITS;
                base[prefix] = sub.len() as u32;
                sub.resize(sub.len() + (1 << sub_bits), 0);
                primary[prefix] = LINK | (base[prefix] << 8) | sub_bits;
            }
            for (sym, &len) in lengths.iter().enumerate() {
                let len = len as u32;
                if len <= PRIMARY_BITS {
                    continue;
                }
                let prefix = (codes[sym] as usize) & ((1 << PRIMARY_BITS) - 1);
                let sub_bits = sub_max[prefix] as u32 - PRIMARY_BITS;
                let entry = ((sym as u32) << 16) | len;
                let mut idx = (codes[sym] as usize) >> PRIMARY_BITS;
                while idx < (1 << sub_bits) {
                    sub[base[prefix] as usize + idx] = entry;
                    idx += 1 << (len - PRIMARY_BITS);
                }
            }
        }

        Ok(TableDecoder { primary, sub, max_len })
    }

    /// Decodes one symbol from `r` via zero-padded lookahead.
    ///
    /// Error mapping matches the bit-by-bit walk exactly: a valid entry
    /// whose code length exceeds the remaining input is `Truncated`; a hole
    /// is `BadCode` only when a full `max_len` bits were actually available
    /// (otherwise the walk would have run dry first).
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, HuffError> {
        r.ensure(self.max_len as u32);
        let mut entry = self.primary[r.peek(PRIMARY_BITS) as usize];
        if entry & LINK != 0 {
            let sub_bits = entry & 0xff;
            let base = (entry >> 8) & 0x7fff;
            let idx = r.peek(PRIMARY_BITS + sub_bits) >> PRIMARY_BITS;
            entry = self.sub[(base + idx) as usize];
        }
        if entry == 0 {
            return if r.available() < self.max_len as u32 {
                Err(HuffError::Truncated)
            } else {
                Err(HuffError::BadCode)
            };
        }
        let len = entry & 0x1f;
        if len > r.available() {
            return Err(HuffError::Truncated);
        }
        r.consume(len);
        Ok((entry >> 16) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;

    #[test]
    fn lengths_satisfy_kraft() {
        let freqs = [10u64, 1, 1, 1, 1, 30, 7, 0, 2];
        let lens = limited_code_lengths(&freqs, 15);
        let kraft: f64 = lens.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft {kraft}");
        assert_eq!(lens[7], 0, "zero-frequency symbol must get no code");
        for (i, &l) in lens.iter().enumerate() {
            if freqs[i] > 0 {
                assert!(l > 0);
            }
        }
    }

    #[test]
    fn lengths_are_optimal_for_dyadic_input() {
        // Frequencies 8,4,2,1,1 → optimal lengths 1,2,3,4,4.
        let lens = limited_code_lengths(&[8, 4, 2, 1, 1], 15);
        assert_eq!(lens, vec![1, 2, 3, 4, 4]);
    }

    #[test]
    fn limit_is_enforced() {
        // Fibonacci-like frequencies force deep trees in unlimited Huffman.
        let freqs: Vec<u64> = (0..30).map(|i| 1u64 << i.min(40)).collect();
        let lens = limited_code_lengths(&freqs, 15);
        assert!(lens.iter().all(|&l| l <= 15));
        let kraft: f64 = lens.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-9);
    }

    #[test]
    fn single_symbol_gets_length_one() {
        let lens = limited_code_lengths(&[0, 5, 0], 15);
        assert_eq!(lens, vec![0, 1, 0]);
    }

    #[test]
    fn empty_alphabet() {
        assert_eq!(limited_code_lengths(&[0, 0], 15), vec![0, 0]);
    }

    #[test]
    fn canonical_code_values() {
        // RFC 1951 §3.2.2 worked example: lengths (3,3,3,3,3,2,4,4)
        // → codes 010,011,100,101,110,00,1110,1111 (before bit reversal).
        let lens = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lens);
        let expect = [0b010u16, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(codes[i], reverse_bits(e, lens[i]), "symbol {i}");
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let freqs: Vec<u64> = (1..=40u64).map(|i| i * i % 17 + 1).collect();
        let lens = limited_code_lengths(&freqs, 15);
        let codes = canonical_codes(&lens);
        let dec = Decoder::new(&lens).unwrap();
        let msg: Vec<u16> = (0..1000u32).map(|i| (i * 7 % 40) as u16).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            w.write_bits(codes[s as usize] as u32, lens[s as usize] as u32);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn oversubscribed_rejected() {
        assert_eq!(Decoder::new(&[1, 1, 1]).unwrap_err(), HuffError::InvalidLengths);
    }

    #[test]
    fn incomplete_rejected() {
        assert_eq!(Decoder::new(&[2, 2, 2]).unwrap_err(), HuffError::InvalidLengths);
    }

    #[test]
    fn single_code_tolerated() {
        let dec = Decoder::new(&[0, 1, 0]).unwrap();
        let mut w = BitWriter::new();
        w.write_bits(0, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 1);
    }

    #[test]
    fn table_decoder_matches_bitwise_decoder() {
        // Deep, skewed tree: forces codes past PRIMARY_BITS so both the
        // root table and the subtable path are exercised.
        let freqs: Vec<u64> = (0..40).map(|i| 1u64 << (i / 3).min(13)).collect();
        let lens = limited_code_lengths(&freqs, 15);
        assert!(lens.iter().any(|&l| l as u32 > super::PRIMARY_BITS), "want long codes");
        let codes = canonical_codes(&lens);
        let bitwise = Decoder::new(&lens).unwrap();
        let table = TableDecoder::new(&lens).unwrap();
        let msg: Vec<u16> = (0..2000u32).map(|i| (i * 13 % 40) as u16).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            w.write_bits(codes[s as usize] as u32, lens[s as usize] as u32);
        }
        let bytes = w.finish();
        let (mut r1, mut r2) = (BitReader::new(&bytes), BitReader::new(&bytes));
        for &s in &msg {
            assert_eq!(bitwise.decode(&mut r1).unwrap(), s);
            assert_eq!(table.decode(&mut r2).unwrap(), s);
        }
    }

    #[test]
    fn table_decoder_validation_matches() {
        assert_eq!(TableDecoder::new(&[1, 1, 1]).unwrap_err(), HuffError::InvalidLengths);
        assert_eq!(TableDecoder::new(&[2, 2, 2]).unwrap_err(), HuffError::InvalidLengths);
        assert_eq!(TableDecoder::new(&[0, 0]).unwrap_err(), HuffError::InvalidLengths);
        assert!(TableDecoder::new(&[0, 1, 0]).is_ok());
    }

    #[test]
    fn table_decoder_single_code_and_hole() {
        let dec = TableDecoder::new(&[0, 1, 0]).unwrap();
        let mut w = BitWriter::new();
        w.write_bits(0, 1);
        w.write_bits(1, 1); // the unassigned half of the code space
        for _ in 0..14 {
            w.write_bits(1, 1); // pad so max_len bits are available
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 1);
        r.consume(0); // no-op; next decode peeks the hole
        assert_eq!(dec.decode(&mut r).unwrap_err(), HuffError::BadCode);
    }

    #[test]
    fn table_decoder_truncated() {
        let lens = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let dec = TableDecoder::new(&lens).unwrap();
        let mut r = BitReader::new(&[]);
        assert_eq!(dec.decode(&mut r).unwrap_err(), HuffError::Truncated);
    }

    #[test]
    fn reverse_bits_cases() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b10000000, 8), 0b1);
        assert_eq!(reverse_bits(0, 15), 0);
    }
}
