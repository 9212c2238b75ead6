//! Canonical, length-limited Huffman codes.
//!
//! DEFLATE transmits only code *lengths*; both sides derive the canonical
//! codes from them (RFC 1951 §3.2.2). The encoder assigns optimal
//! length-limited lengths with the package-merge algorithm (alphabet sizes
//! here are ≤ 288 and limits ≤ 15, so the O(n·L) cost is negligible). Two
//! decoders accept the same length sets: [`Decoder`] walks the canonical
//! first-code/count tables bit by bit (inflate's code-length alphabet, and
//! every symbol of the `dhub_oracle` test decoder), and the packed lookup
//! table inflate's loops index resolves a symbol in one or two table
//! reads.

use crate::bitio::{BitReader, OutOfBits};

/// Largest alphabet [`limited_code_lengths`] codes: DEFLATE's 288
/// literal/length symbols.
const MAX_SYMBOLS: usize = 288;

/// Assigns optimal code lengths for `freqs` limited to `max_len` bits.
///
/// Returns a length per symbol (0 for unused symbols). Symbols with nonzero
/// frequency always receive a nonzero length. Panics if the alphabet cannot
/// fit in `max_len` bits (needs `2^max_len` ≥ used symbols), or if more
/// than 288 symbols are used or `max_len` exceeds 15, which DEFLATE never
/// asks for.
///
/// Package-merge, row by row: row 1 is the used symbols sorted by weight
/// (ties in symbol order), and row k merges those leaves with the packages
/// (adjacent pairs) of row k − 1, a leaf going first on equal weight. The
/// first 2n − 2 entries of row `max_len` are selected; a selected package
/// selects the two entries it was made of, which are a prefix of the row
/// below, and the selected leaves of each row are a prefix of the sorted
/// leaves. A symbol's code length is the number of rows that select its
/// leaf, so a row keeps only its weights and which entries are leaves:
/// no package remembers its symbols, and nothing is allocated but the
/// returned lengths.
pub fn limited_code_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    const MAX_BITS: usize = 15;
    const ROW: usize = 2 * MAX_SYMBOLS;
    let mut lengths = vec![0u8; freqs.len()];
    let mut leaves = [0u16; MAX_SYMBOLS];
    let mut n = 0;
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            assert!(n < MAX_SYMBOLS, "more than {MAX_SYMBOLS} symbols used");
            leaves[n] = sym as u16;
            n += 1;
        }
    }
    match n {
        0 => return lengths,
        1 => {
            lengths[leaves[0] as usize] = 1;
            return lengths;
        }
        n => assert!((1usize << max_len) >= n, "alphabet too large for length limit"),
    }
    assert!(max_len as usize <= MAX_BITS, "length limit above 15 bits");
    let rows = max_len as usize;
    let leaves = &mut leaves[..n];
    leaves.sort_by_key(|&s| freqs[s as usize]);
    let mut leaf_w = [0u64; MAX_SYMBOLS];
    for (w, &s) in leaf_w.iter_mut().zip(leaves.iter()) {
        *w = freqs[s as usize];
    }

    let mut is_leaf = [[false; ROW]; MAX_BITS];
    let mut row_len = [0usize; MAX_BITS];
    let (mut row, mut next) = ([0u64; ROW], [0u64; ROW]);
    row[..n].copy_from_slice(&leaf_w[..n]);
    is_leaf[0][..n].fill(true);
    row_len[0] = n;
    for k in 1..rows {
        let packages = row_len[k - 1] / 2;
        let (mut i, mut j, mut m) = (0, 0, 0);
        while i < n || j < packages {
            let package = if j < packages { row[2 * j] + row[2 * j + 1] } else { 0 };
            if j >= packages || (i < n && leaf_w[i] <= package) {
                next[m] = leaf_w[i];
                is_leaf[k][m] = true;
                i += 1;
            } else {
                next[m] = package;
                j += 1;
            }
            m += 1;
        }
        row_len[k] = m;
        std::mem::swap(&mut row, &mut next);
    }

    let mut take = (2 * n - 2).min(row_len[rows - 1]);
    for k in (0..rows).rev() {
        let leaves_taken = is_leaf[k][..take].iter().filter(|&&leaf| leaf).count();
        for &s in &leaves[..leaves_taken] {
            lengths[s as usize] += 1;
        }
        take = 2 * (take - leaves_taken);
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
        let (mut count, max_len) = checked_counts(lengths)?;
        let total: u32 = count.iter().map(|&c| c as u32).sum();

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

/// Validates a code-length set for both decoders, returning the number of
/// codes of each length and the longest length.
///
/// Accepts complete codes and the degenerate one-symbol code. An
/// over-subscribed set (Kraft sum > 1) is rejected; an incomplete set is
/// also rejected, except for the single-code case DEFLATE allows for
/// distance trees.
fn checked_counts(lengths: &[u8]) -> Result<(Vec<u16>, u8), HuffError> {
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
    Ok((count, max_len))
}

// Packed table entries. Each `u32` slot carries everything the inflate
// loops need from one lookup:
//
//   bits 0..=3    length of the whole code (root plus subtable bits), so
//                 `acc.wrapping_shr(entry)` consumes it; bits 4..=5 stay
//                 clear for exactly that shift
//   bits 8..=11   extra-bit count of a length / distance symbol, or the
//                 index width of a subtable link
//   bit 12        EOB                       } each only with
//   bit 13        HOLE: no code maps here   } EXCEPTIONAL
//   bit 14        SUBTABLE link             }
//   bit 15        EXCEPTIONAL: EOB, a bad symbol, a hole or a link
//   bits 16..=30  literal byte, length / distance base, or subtable offset
//   bit 31        LITERAL
//
// HOLE and SUBTABLE are the table's own; the builder's `payload` supplies
// every other bit above the code length.

/// Mask of an entry's code length.
pub(crate) const LEN_MASK: u32 = 0xF;
/// End-of-block symbol.
pub(crate) const EOB: u32 = 1 << 12;
/// Root or subtable slot no code maps to (incomplete one-symbol codes).
pub(crate) const HOLE: u32 = 1 << 13;
/// Root slot linking to a subtable for codes longer than the root width.
pub(crate) const SUBTABLE: u32 = 1 << 14;
/// Anything but a literal or a valid length / distance.
pub(crate) const EXCEPTIONAL: u32 = 1 << 15;
/// Literal byte in bits 16..=23.
pub(crate) const LITERAL: u32 = 1 << 31;

/// Longest code DEFLATE allows; the checked decode peeks this many bits.
const MAX_CODE_LEN: u32 = 15;

/// Table-driven canonical Huffman decoder over packed entries: a
/// `1 << root_bits` root plus, per root prefix shared by longer codes, one
/// subtable sized by the deepest of them. Accepts exactly the length sets
/// [`Decoder::new`] accepts, and [`decode`](Self::decode) fails exactly
/// where [`Decoder::decode`] would, with the same error.
pub(crate) struct PackedTable {
    entries: Vec<u32>,
    root_bits: u32,
    max_len: u32,
}

impl PackedTable {
    /// An empty table with a `1 << root_bits` root, to [`rebuild`](Self::rebuild) into.
    pub(crate) fn new(root_bits: u32) -> PackedTable {
        debug_assert!(root_bits <= MAX_CODE_LEN);
        PackedTable { entries: Vec::new(), root_bits, max_len: 0 }
    }

    /// Refills the table from code lengths, keeping its allocation.
    /// `payload(sym)` gives the bits of symbol `sym`'s entry above the code
    /// length. On error the table is left unusable until the next rebuild.
    pub(crate) fn rebuild(
        &mut self,
        lengths: &[u8],
        payload: impl Fn(usize) -> u32,
    ) -> Result<(), HuffError> {
        let (_, max_len) = checked_counts(lengths)?;
        let root_bits = self.root_bits;
        let root_size = 1usize << root_bits;
        let codes = canonical_codes(lengths);
        self.max_len = max_len as u32;
        let entries = &mut self.entries;
        entries.clear();
        entries.resize(root_size, EXCEPTIONAL | HOLE);

        // Short codes stride-fill the root directly.
        for (sym, &len) in lengths.iter().enumerate() {
            let len = len as u32;
            if len == 0 || len > root_bits {
                continue;
            }
            let entry = payload(sym) | len;
            let mut idx = codes[sym] as usize;
            while idx < root_size {
                entries[idx] = entry;
                idx += 1 << len;
            }
        }
        if self.max_len <= root_bits {
            return Ok(());
        }

        // Long codes group by their low `root_bits` (the first bits on the
        // wire: `canonical_codes` is LSB-first). Each prefix's link first
        // records its deepest code, then gets its subtable appended, then
        // the codes stride-fill it.
        let prefix_of = |sym: usize| (codes[sym] as usize) & (root_size - 1);
        for (sym, &len) in lengths.iter().enumerate() {
            let sub_bits = (len as u32).saturating_sub(root_bits);
            let link = &mut entries[prefix_of(sym)];
            if sub_bits > 0 && (*link & SUBTABLE == 0 || (*link >> 8) & LEN_MASK < sub_bits) {
                *link = EXCEPTIONAL | SUBTABLE | (sub_bits << 8);
            }
        }
        for prefix in 0..root_size {
            let link = entries[prefix];
            if link & SUBTABLE != 0 {
                entries[prefix] = link | ((entries.len() as u32) << 16);
                entries.resize(entries.len() + (1 << ((link >> 8) & LEN_MASK)), EXCEPTIONAL | HOLE);
            }
        }
        for (sym, &len) in lengths.iter().enumerate() {
            let len = len as u32;
            if len <= root_bits {
                continue;
            }
            let link = entries[prefix_of(sym)];
            let (base, size) = ((link >> 16) as usize, 1usize << ((link >> 8) & LEN_MASK));
            let entry = payload(sym) | len;
            let mut idx = (codes[sym] as usize) >> root_bits;
            while idx < size {
                entries[base + idx] = entry;
                idx += 1 << (len - root_bits);
            }
        }
        Ok(())
    }

    /// The root table: index it with the next `root_bits` stream bits.
    #[inline]
    pub(crate) fn root(&self) -> &[u32] {
        &self.entries[..1 << self.root_bits]
    }

    /// Follows a subtable `link` found in the root for the stream bits `bits`.
    #[inline]
    pub(crate) fn sub_entry(&self, link: u32, bits: u64) -> u32 {
        let mask = (1usize << ((link >> 8) & LEN_MASK)) - 1;
        self.entries[(link >> 16) as usize + ((bits >> self.root_bits) as usize & mask)]
    }

    /// Decodes one symbol from `r` and returns its entry, never a link or a
    /// hole.
    ///
    /// Errors match the bit-by-bit walk exactly: an entry whose code is
    /// longer than the remaining input is `Truncated`; a hole is `BadCode`
    /// only when a full `max_len` bits were actually available (otherwise
    /// the walk would have run dry first).
    #[inline]
    pub(crate) fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, HuffError> {
        r.ensure(self.max_len);
        let bits = r.peek(MAX_CODE_LEN) as u64;
        let mut entry = self.root()[bits as usize & ((1 << self.root_bits) - 1)];
        if entry & SUBTABLE != 0 {
            entry = self.sub_entry(entry, bits);
        }
        if entry & HOLE != 0 {
            return Err(if r.available() < self.max_len {
                HuffError::Truncated
            } else {
                HuffError::BadCode
            });
        }
        let len = entry & LEN_MASK;
        if len > r.available() {
            return Err(HuffError::Truncated);
        }
        r.consume(len);
        Ok(entry)
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

    /// A packed table whose payload is the symbol, for comparing against
    /// [`Decoder`].
    fn packed(lens: &[u8], root_bits: u32) -> Result<PackedTable, HuffError> {
        let mut t = PackedTable::new(root_bits);
        t.rebuild(lens, |sym| (sym as u32) << 16)?;
        Ok(t)
    }

    fn packed_sym(t: &PackedTable, r: &mut BitReader<'_>) -> Result<u16, HuffError> {
        t.decode(r).map(|e| (e >> 16) as u16)
    }

    #[test]
    fn table_decoder_matches_bitwise_decoder() {
        // Deep, skewed tree: forces codes past both root widths so the root
        // and the subtable paths are exercised.
        let freqs: Vec<u64> = (0..40).map(|i| 1u64 << (i / 3).min(13)).collect();
        let lens = limited_code_lengths(&freqs, 15);
        assert!(lens.iter().any(|&l| l > 11), "want long codes");
        let codes = canonical_codes(&lens);
        let msg: Vec<u16> = (0..2000u32).map(|i| (i * 13 % 40) as u16).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            w.write_bits(codes[s as usize] as u32, lens[s as usize] as u32);
        }
        let bytes = w.finish();
        let bitwise = Decoder::new(&lens).unwrap();
        for root_bits in [8, 11] {
            let table = packed(&lens, root_bits).unwrap();
            let (mut r1, mut r2) = (BitReader::new(&bytes), BitReader::new(&bytes));
            for &s in &msg {
                assert_eq!(bitwise.decode(&mut r1).unwrap(), s);
                assert_eq!(packed_sym(&table, &mut r2).unwrap(), s);
            }
        }
    }

    #[test]
    fn table_decoder_validation_matches() {
        for lens in [&[1u8, 1, 1][..], &[2, 2, 2], &[0, 0], &[0, 1, 0], &[0, 12, 0]] {
            let want = Decoder::new(lens).err();
            assert_eq!(packed(lens, 8).err(), want, "{lens:?}");
        }
    }

    #[test]
    fn table_decoder_single_code_and_hole() {
        // A lone 1-bit code sits in the root; a lone 12-bit code behind an
        // 8-bit root sits in a subtable, so it has holes at both levels.
        for (lens, code_len) in [(&[0u8, 1, 0][..], 1u32), (&[0, 12, 0], 12)] {
            let bitwise = Decoder::new(lens).unwrap();
            let table = packed(lens, 8).unwrap();
            // A set first bit is a root hole; eight zero bits then a set
            // bit is a subtable hole.
            let holes: &[u32] = if code_len > 8 { &[1, 1 << 8] } else { &[1] };
            for &hole in holes {
                let mut w = BitWriter::new();
                w.write_bits(0, code_len);
                w.write_bits(hole, 16);
                let bytes = w.finish();
                let (mut r1, mut r2) = (BitReader::new(&bytes), BitReader::new(&bytes));
                assert_eq!(bitwise.decode(&mut r1).unwrap(), 1);
                assert_eq!(packed_sym(&table, &mut r2).unwrap(), 1);
                assert_eq!(bitwise.decode(&mut r1).unwrap_err(), HuffError::BadCode);
                assert_eq!(packed_sym(&table, &mut r2).unwrap_err(), HuffError::BadCode);
            }
            // Fewer than max_len bits left: a hole is Truncated, as the walk
            // runs dry before it could tell.
            let tail = [0xffu8];
            let want = if code_len > 8 { HuffError::Truncated } else { HuffError::BadCode };
            assert_eq!(bitwise.decode(&mut BitReader::new(&tail)).unwrap_err(), want);
            assert_eq!(packed_sym(&table, &mut BitReader::new(&tail)).unwrap_err(), want);
        }
    }

    #[test]
    fn table_decoder_truncated() {
        let lens = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let table = packed(&lens, 8).unwrap();
        let mut r = BitReader::new(&[]);
        assert_eq!(packed_sym(&table, &mut r).unwrap_err(), HuffError::Truncated);
        // A code the zero padding would complete is Truncated too: three
        // 2-bit symbol-5 codes, then the first two bits of symbol 6's
        // 4-bit code end the byte.
        let codes = canonical_codes(&lens);
        let mut w = BitWriter::new();
        for _ in 0..3 {
            w.write_bits(codes[5] as u32, 2);
        }
        w.write_bits(codes[6] as u32 & 0b11, 2);
        let bytes = w.finish();
        let bitwise = Decoder::new(&lens).unwrap();
        let (mut r1, mut r2) = (BitReader::new(&bytes), BitReader::new(&bytes));
        for _ in 0..3 {
            assert_eq!(bitwise.decode(&mut r1).unwrap(), 5);
            assert_eq!(packed_sym(&table, &mut r2).unwrap(), 5);
        }
        assert_eq!(bitwise.decode(&mut r1).unwrap_err(), HuffError::Truncated);
        assert_eq!(packed_sym(&table, &mut r2).unwrap_err(), HuffError::Truncated);
    }

    #[test]
    fn reverse_bits_cases() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b10000000, 8), 0b1);
        assert_eq!(reverse_bits(0, 15), 0);
    }
}
