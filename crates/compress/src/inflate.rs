//! DEFLATE decoder (RFC 1951).
//!
//! Huffman blocks decode through packed lookup tables
//! (`huffman::PackedTable`): first in a fast loop that refills a 64-bit
//! accumulator with one word load per symbol group and writes literals and
//! matches straight into output pre-sized from a caller hint (the gzip
//! ISIZE footer), then in one checked loop for the block's end and the
//! stream's tail. The original bit-by-bit decoder is the test oracle
//! `dhub_oracle::inflate_reference`; the property suites hold this one to
//! its bytes and its error variants on every stream, valid or not.

use crate::bitio::{BitReader, OutOfBits};
use crate::copy::{copy_match, copy_match_raw, wide_enabled, COPY_SLACK, NARROW, WIDE};
use crate::huffman::{
    Decoder, HuffError, PackedTable, EOB, EXCEPTIONAL, LEN_MASK, LITERAL, SUBTABLE,
};
use crate::tables::{fixed_dist_lengths, fixed_lit_lengths, CLCL_ORDER, DIST_CODES, LENGTH_CODES};
use std::sync::OnceLock;

/// Errors raised on malformed DEFLATE streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InflateError {
    /// Stream ended mid-element.
    Truncated,
    /// Reserved block type 11.
    BadBlockType,
    /// Stored block LEN/NLEN mismatch.
    BadStoredLength,
    /// Invalid Huffman table description.
    BadHuffmanTable,
    /// A symbol decoded to an impossible value.
    BadSymbol,
    /// Back-reference before the start of output.
    DistanceTooFar,
}

impl std::fmt::Display for InflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            InflateError::Truncated => "truncated deflate stream",
            InflateError::BadBlockType => "reserved block type",
            InflateError::BadStoredLength => "stored block length check failed",
            InflateError::BadHuffmanTable => "invalid huffman table",
            InflateError::BadSymbol => "invalid symbol",
            InflateError::DistanceTooFar => "back-reference beyond output start",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for InflateError {}

impl From<OutOfBits> for InflateError {
    fn from(_: OutOfBits) -> Self {
        InflateError::Truncated
    }
}

impl From<HuffError> for InflateError {
    fn from(e: HuffError) -> Self {
        match e {
            HuffError::Truncated => InflateError::Truncated,
            _ => InflateError::BadHuffmanTable,
        }
    }
}

/// Decompresses a raw DEFLATE stream.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let mut out = Vec::new();
    inflate_into(data, &mut out, None)?;
    Ok(out)
}

/// Decompresses into `out`, which is cleared first (its capacity is kept,
/// so a reused buffer pays no allocation once warm). `size_hint` pre-sizes
/// the output — gzip callers pass the trailer ISIZE; `None` falls back to
/// the 3× heuristic. A wrong hint costs reallocations, never bytes.
pub fn inflate_into(
    data: &[u8],
    out: &mut Vec<u8>,
    size_hint: Option<usize>,
) -> Result<(), InflateError> {
    out.clear();
    // The fast loop wants FAST_OUT bytes of room past its last write, so a
    // right hint gets that much more and the block ends never reallocate.
    let hint = size_hint.unwrap_or_else(|| data.len().saturating_mul(3));
    out.reserve(hint.saturating_add(FAST_OUT));
    let mut r = BitReader::new(data);
    let mut lit = PackedTable::new(LIT_ROOT_BITS);
    let mut dist = PackedTable::new(DIST_ROOT_BITS);
    loop {
        let last = r.read_bit()? == 1;
        match r.read_bits(2)? {
            0b00 => stored_block_fast(&mut r, out)?,
            0b01 => {
                let (lit, dist) = fixed_tables();
                packed_block(&mut r, out, lit, dist)?;
            }
            0b10 => {
                let (lens, hlit) = dynamic_lengths(&mut r)?;
                lit.rebuild(&lens[..hlit], lit_payload)?;
                dist.rebuild(&lens[hlit..], dist_payload)?;
                packed_block(&mut r, out, &lit, &dist)?;
            }
            _ => return Err(InflateError::BadBlockType),
        }
        if last {
            return Ok(());
        }
    }
}

/// Literal/length root width: every fixed-Huffman code and most dynamic
/// ones resolve in one lookup; longer codes take one subtable step.
const LIT_ROOT_BITS: u32 = 11;
/// Distance root width.
const DIST_ROOT_BITS: u32 = 8;

/// Packed entry bits above the code length for literal/length symbol `sym`.
fn lit_payload(sym: usize) -> u32 {
    match sym {
        0..=255 => LITERAL | (sym as u32) << 16,
        256 => EXCEPTIONAL | EOB,
        257..=285 => {
            let (base, extra) = LENGTH_CODES[sym - 257];
            (base as u32) << 16 | (extra as u32) << 8
        }
        // 286 and 287 take part in the fixed code but never occur in data.
        _ => EXCEPTIONAL,
    }
}

/// Packed entry bits above the code length for distance symbol `sym`.
fn dist_payload(sym: usize) -> u32 {
    match DIST_CODES.get(sym) {
        Some(&(base, extra)) => (base as u32) << 16 | (extra as u32) << 8,
        // 30 and 31, likewise.
        None => EXCEPTIONAL,
    }
}

fn fixed_tables() -> &'static (PackedTable, PackedTable) {
    static T: OnceLock<(PackedTable, PackedTable)> = OnceLock::new();
    T.get_or_init(|| {
        let mut lit = PackedTable::new(LIT_ROOT_BITS);
        let mut dist = PackedTable::new(DIST_ROOT_BITS);
        lit.rebuild(&fixed_lit_lengths(), lit_payload).expect("fixed table");
        dist.rebuild(&fixed_dist_lengths(), dist_payload).expect("fixed table");
        (lit, dist)
    })
}

fn stored_block_fast(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<(), InflateError> {
    r.align_byte();
    let len = r.read_bits(16)? as u16;
    let nlen = r.read_bits(16)? as u16;
    if len != !nlen {
        return Err(InflateError::BadStoredLength);
    }
    r.read_slice_into(len as usize, out).map_err(|_| InflateError::Truncated)
}

/// Parses the HLIT/HDIST/HCLEN header and code-length stream into one
/// lengths vector plus the literal-table width.
fn dynamic_lengths(r: &mut BitReader<'_>) -> Result<(Vec<u8>, usize), InflateError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(InflateError::BadHuffmanTable);
    }
    let mut cl_lens = [0u8; 19];
    for &sym in CLCL_ORDER.iter().take(hclen) {
        cl_lens[sym] = r.read_bits(3)? as u8;
    }
    let cl_dec = Decoder::new(&cl_lens)?;

    let mut lens = Vec::with_capacity(hlit + hdist);
    while lens.len() < hlit + hdist {
        match cl_dec.decode(r)? {
            s @ 0..=15 => lens.push(s as u8),
            16 => {
                let &prev = lens.last().ok_or(InflateError::BadHuffmanTable)?;
                let n = r.read_bits(2)? + 3;
                lens.extend(std::iter::repeat_n(prev, n as usize));
            }
            17 => {
                let n = r.read_bits(3)? + 3;
                lens.extend(std::iter::repeat_n(0, n as usize));
            }
            18 => {
                let n = r.read_bits(7)? + 11;
                lens.extend(std::iter::repeat_n(0, n as usize));
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
    if lens.len() != hlit + hdist {
        // A repeat ran past the boundary between the two tables.
        return Err(InflateError::BadHuffmanTable);
    }
    Ok((lens, hlit))
}

/// The fast loop runs while this many input bytes remain: it refills at
/// most twice per iteration, each time with one 8-byte load at most 7
/// bytes past the last.
const FAST_IN: usize = 16;
/// ...and while this much output capacity remains: up to three literals,
/// or two literals and a 258-byte match plus the copy kernel's overshoot.
const FAST_OUT: usize = 3 + 258 + COPY_SLACK;

/// Why the fast loop handed the block back.
enum FastExit {
    /// Fewer than [`FAST_OUT`] bytes of output capacity: reserve and re-enter.
    Capacity,
    /// The input tail, or a symbol only the checked loop decodes (EOB, a
    /// bad symbol, a hole): finish the block there.
    Checked,
}

/// Decodes one Huffman block over packed tables: the fast loop for as long
/// as both margins hold, the checked loop for what is left.
fn packed_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &PackedTable,
    dist: &PackedTable,
) -> Result<(), InflateError> {
    loop {
        if out.capacity() - out.len() < FAST_OUT {
            // Amortized growth, so a hint that was too small (or none)
            // costs O(log n) reallocations, not a slow finish.
            out.reserve(FAST_OUT);
        }
        let exit = if wide_enabled() {
            fast_loop::<WIDE>(r, out, lit, dist)
        } else {
            fast_loop::<NARROW>(r, out, lit, dist)
        };
        match exit? {
            FastExit::Capacity => continue,
            FastExit::Checked => return checked_loop(r, out, lit, dist),
        }
    }
}

/// The fast loop. It owns the bit cursor while it runs: the accumulator
/// holds `nbits >= 56` valid bits after each refill, and the bits above
/// `nbits` are real stream bits (the bytes from `pos` on) or zeros, so the
/// next refill can OR a whole word over them. Output goes through a raw
/// cursor into capacity reserved up front. Every exit hands a consistent
/// cursor back to `r` and sets `out`'s length to what was written.
/// Matches copy in `C`-byte chunks.
fn fast_loop<const C: usize>(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &PackedTable,
    dist: &PackedTable,
) -> Result<FastExit, InflateError> {
    let lit_root: &[u32; 1 << LIT_ROOT_BITS] = lit.root().try_into().expect("literal root");
    let dist_root: &[u32; 1 << DIST_ROOT_BITS] = dist.root().try_into().expect("distance root");
    let (data, mut pos, mut acc, mut nbits) = r.take_state();
    let Some(pos_limit) = data.len().checked_sub(FAST_IN) else {
        return Ok(FastExit::Checked);
    };
    let Some(written_limit) = out.capacity().checked_sub(FAST_OUT) else {
        return Ok(FastExit::Capacity);
    };
    let base = out.as_mut_ptr();
    let mut written = out.len();

    // One unaligned word load tops the accumulator up to 56..=63 bits:
    // whole bytes are counted in, the rest of the word stays above `nbits`.
    macro_rules! refill {
        () => {{
            // In bounds: the iteration began with `pos <= pos_limit` and
            // refills at most twice, the second time <= 7 bytes further on.
            let word = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("8-byte window"));
            acc |= word << nbits;
            pos += ((63 - nbits) >> 3) as usize;
            nbits |= 56;
        }};
    }
    // Consumes an entry's code. Bits 4..=5 of an entry are clear, so the
    // shift amount is exactly its code length.
    macro_rules! consume_code {
        ($e:expr) => {{
            let e: u32 = $e;
            acc = acc.wrapping_shr(e);
            nbits -= e & LEN_MASK;
        }};
    }
    macro_rules! consume_bits {
        ($n:expr) => {{
            let n: u32 = $n;
            acc >>= n;
            nbits -= n;
        }};
    }
    macro_rules! literal {
        ($e:expr) => {{
            let e: u32 = $e;
            consume_code!(e);
            // SAFETY: the iteration began with `written <= written_limit`,
            // which covers its at most three literals, or two literals and
            // one match plus the copy kernel's overshoot.
            unsafe { base.add(written).write((e >> 16) as u8) };
            written += 1;
        }};
    }

    // Refills leave the low `nbits` bits alone, so with at least a root
    // index's worth buffered the next entry is looked up before the refill
    // and the two overlap. Every path back to the top keeps >= 19 bits.
    let lit_mask = (1 << LIT_ROOT_BITS) - 1;
    if pos <= pos_limit {
        refill!();
    }
    let mut e = lit_root[acc as usize & lit_mask];
    let exit = loop {
        if pos > pos_limit {
            break Ok(FastExit::Checked);
        }
        if written > written_limit {
            break Ok(FastExit::Capacity);
        }
        refill!();
        // Up to three root literals per refill: 3 × 11 bits of the >= 56.
        if e & LITERAL != 0 {
            literal!(e);
            e = lit_root[acc as usize & lit_mask];
            if e & LITERAL != 0 {
                literal!(e);
                e = lit_root[acc as usize & lit_mask];
                if e & LITERAL != 0 {
                    literal!(e);
                    e = lit_root[acc as usize & lit_mask];
                    continue;
                }
            }
        }
        // At most 22 bits went on literals: >= 34 remain for one code of
        // up to 15 bits, or a length code plus its <= 5 extra bits.
        let before_length = (pos, acc, nbits);
        if e & EXCEPTIONAL != 0 {
            if e & SUBTABLE == 0 {
                break Ok(FastExit::Checked);
            }
            e = lit.sub_entry(e, acc);
            if e & LITERAL != 0 {
                literal!(e);
                e = lit_root[acc as usize & lit_mask];
                continue;
            }
            if e & EXCEPTIONAL != 0 {
                break Ok(FastExit::Checked);
            }
        }
        let code_len = e & LEN_MASK;
        let extra = (e >> 8) & LEN_MASK;
        let len = (e >> 16) as usize + ((acc >> code_len) & ((1 << extra) - 1)) as usize;
        consume_bits!(code_len + extra);

        // >= 14 bits left cover the distance root index; after the refill
        // the code plus up to 13 extra bits take <= 28 of a fresh 56.
        let mut de = dist_root[acc as usize & ((1 << DIST_ROOT_BITS) - 1)];
        refill!();
        if de & EXCEPTIONAL != 0 {
            if de & SUBTABLE != 0 {
                de = dist.sub_entry(de, acc);
            }
            if de & EXCEPTIONAL != 0 {
                // Rewind to the length symbol so the checked loop decodes
                // the pair and raises the bit-by-bit decoder's error.
                (pos, acc, nbits) = before_length;
                break Ok(FastExit::Checked);
            }
        }
        let dcode_len = de & LEN_MASK;
        let dextra = (de >> 8) & LEN_MASK;
        let d = (de >> 16) as usize + ((acc >> dcode_len) & ((1 << dextra) - 1)) as usize;
        consume_bits!(dcode_len + dextra);
        e = lit_root[acc as usize & lit_mask];
        if d > written {
            break Err(InflateError::DistanceTooFar);
        }
        // SAFETY: `1 <= d <= written`, so the source lies in the initialized
        // output; the capacity margin covers `len <= 258` plus the slack.
        unsafe { copy_match_raw::<C>(base.add(written), d, len) };
        written += len;
    };
    // SAFETY: every byte below `written` was initialized, by the caller or
    // by the writes above, and `written <= capacity`.
    unsafe { out.set_len(written) };
    r.restore_state(pos, acc, nbits);
    exit
}

/// The checked loop: one symbol at a time over [`BitReader`], with the
/// bit-by-bit decoder's errors — the stream tail, EOB, bad symbols, holes.
fn checked_loop(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &PackedTable,
    dist: &PackedTable,
) -> Result<(), InflateError> {
    loop {
        let e = lit.decode(r)?;
        if e & LITERAL != 0 {
            out.push((e >> 16) as u8);
            continue;
        }
        if e & EXCEPTIONAL != 0 {
            return if e & EOB != 0 { Ok(()) } else { Err(InflateError::BadSymbol) };
        }
        let len = (e >> 16) as usize + r.read_bits((e >> 8) & LEN_MASK)? as usize;
        let de = dist.decode(r)?;
        if de & EXCEPTIONAL != 0 {
            return Err(InflateError::BadSymbol);
        }
        let d = (de >> 16) as usize + r.read_bits((de >> 8) & LEN_MASK)? as usize;
        if d > out.len() {
            return Err(InflateError::DistanceTooFar);
        }
        copy_match(out, d, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;

    #[test]
    fn stored_roundtrip_manual() {
        // Hand-built stored block: BFINAL=1, BTYPE=00.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.align_byte();
        w.write_bytes(&5u16.to_le_bytes());
        w.write_bytes(&(!5u16).to_le_bytes());
        w.write_bytes(b"hello");
        assert_eq!(inflate(&w.finish()).unwrap(), b"hello");
    }

    #[test]
    fn fixed_block_known_bytes() {
        // `echo -n abc | pigz -z`-style check: deflate of "abc" with fixed
        // codes produced by zlib is 4b 4c 4a 06 00.
        assert_eq!(inflate(&[0x4b, 0x4c, 0x4a, 0x06, 0x00]).unwrap(), b"abc");
    }

    #[test]
    fn zlib_dynamic_stream() {
        // Raw deflate of 'aaaaabbbbbcccccdddddeeeee\n' emitted by zlib
        // level 9, captured from python `zlib.compressobj(9, DEFLATED, -15)`.
        let raw: &[u8] = &[
            0x4b, 0x4c, 0x04, 0x82, 0x24, 0x10, 0x48, 0x06, 0x81, 0x14, 0x10, 0x48, 0x05, 0x01,
            0x2e, 0x00,
        ];
        assert_eq!(inflate(raw).unwrap(), b"aaaaabbbbbcccccdddddeeeee\n");
    }

    #[test]
    fn zlib_repeated_text_stream() {
        // zlib level 6 raw deflate of 20 copies of the fox sentence. The
        // sentence repeats at distance 45 with match lengths well past it,
        // so this exercises the overlapping chunked copy.
        let raw: Vec<u8> = {
            let hex = "2bc94855282ccd4cce56482aca2fcf5348cbaf50c82acd2d2856c82f4b2d5228014ae72456552aa4e4a7eb8179a38a47158f2aa6aa6200";
            (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
        };
        let expect: Vec<u8> = b"the quick brown fox jumps over the lazy dog. ".repeat(20);
        assert_eq!(inflate(&raw).unwrap(), expect);
    }

    #[test]
    fn bad_block_type() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b11, 2);
        assert_eq!(inflate(&w.finish()).unwrap_err(), InflateError::BadBlockType);
    }

    #[test]
    fn stored_length_mismatch() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.align_byte();
        w.write_bytes(&5u16.to_le_bytes());
        w.write_bytes(&0u16.to_le_bytes()); // wrong NLEN
        w.write_bytes(b"hello");
        assert_eq!(inflate(&w.finish()).unwrap_err(), InflateError::BadStoredLength);
    }

    #[test]
    fn truncated_stream() {
        assert_eq!(inflate(&[]).unwrap_err(), InflateError::Truncated);
        assert_eq!(inflate(&[0x4b]).unwrap_err(), InflateError::Truncated);
    }

    #[test]
    fn distance_too_far() {
        // Fixed block: immediately emit a match referencing d=1 with no
        // output yet. Symbol 257 (len 3) = code 0000001 (7 bits), dist 0 =
        // 00000 (5 bits).
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        // Symbol 257 has fixed code length 7, canonical code 1 → reversed.
        let lens = crate::tables::fixed_lit_lengths();
        let codes = crate::huffman::canonical_codes(&lens);
        w.write_bits(codes[257] as u32, lens[257] as u32);
        // Distance code 0, 5 bits, code value 0.
        w.write_bits(0, 5);
        assert_eq!(inflate(&w.finish()).unwrap_err(), InflateError::DistanceTooFar);
    }

    #[test]
    fn inflate_into_reuses_capacity() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.align_byte();
        w.write_bytes(&5u16.to_le_bytes());
        w.write_bytes(&(!5u16).to_le_bytes());
        w.write_bytes(b"hello");
        let stream = w.finish();
        let mut out = Vec::with_capacity(4096);
        let ptr = out.as_ptr();
        inflate_into(&stream, &mut out, Some(5)).unwrap();
        assert_eq!(out, b"hello");
        assert_eq!(out.as_ptr(), ptr, "warm buffer must not reallocate");
        out.push(b'!'); // dirty it; the next call must clear
        inflate_into(&stream, &mut out, Some(5)).unwrap();
        assert_eq!(out, b"hello");

        // Huffman blocks write through the fast loop's raw cursor: once the
        // buffer has grown to fit, decoding again moves nothing.
        use crate::deflate::{deflate, CompressOptions};
        let data = b"usr/lib/x86_64-linux-gnu/libc.so.6 etc/ssl/certs ".repeat(2000);
        let stream = deflate(&data, &CompressOptions::default());
        let mut out = Vec::new();
        inflate_into(&stream, &mut out, Some(data.len())).unwrap();
        let (ptr, cap) = (out.as_ptr(), out.capacity());
        for hint in [Some(data.len()), Some(0), None] {
            inflate_into(&stream, &mut out, hint).unwrap();
            assert_eq!(out, data);
            let moved = (out.as_ptr(), out.capacity()) != (ptr, cap);
            assert!(!moved, "warm buffer reallocated ({hint:?})");
        }
    }

    /// One symbol of a hand-built fixed-Huffman block.
    #[derive(Clone)]
    enum Sym {
        Lit(u8),
        Match(u16, u16),
    }

    /// A final fixed-Huffman block of `syms`, then EOB.
    fn fixed_block(syms: &[Sym]) -> Vec<u8> {
        use crate::huffman::canonical_codes;
        use crate::tables::{dist_to_code, length_to_code};
        let (lit_lens, dist_lens) = (fixed_lit_lengths(), fixed_dist_lengths());
        let (lit_codes, dist_codes) = (canonical_codes(&lit_lens), canonical_codes(&dist_lens));
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        for s in syms.iter().map(Some).chain([None]) {
            let sym = match s {
                Some(Sym::Lit(b)) => *b as usize,
                Some(Sym::Match(len, _)) => 257 + length_to_code(*len).0,
                None => 256,
            };
            w.write_bits(lit_codes[sym] as u32, lit_lens[sym] as u32);
            if let Some(&Sym::Match(len, d)) = s {
                let (_, extra, value) = length_to_code(len);
                w.write_bits(value as u32, extra as u32);
                let (dc, dextra, dvalue) = dist_to_code(d);
                w.write_bits(dist_codes[dc] as u32, dist_lens[dc] as u32);
                w.write_bits(dvalue as u32, dextra as u32);
            }
        }
        w.finish()
    }

    #[test]
    fn last_symbol_straddles_fast_margin() {
        // Literal runs of every length up to 160 (8- and 9-bit codes), then
        // a match with extra bits as the last symbol: the fast loop hands
        // over to the checked one at every bit offset around the 16-byte
        // input margin, mid-literal and mid-match.
        for n in 1..160usize {
            let mut syms: Vec<Sym> = (0..n).map(|i| Sym::Lit((i * 151 % 256) as u8)).collect();
            syms.push(Sym::Match(3 + (n * 5 % 256) as u16, 1 + (n * 7 % n) as u16));
            let stream = fixed_block(&syms);
            let mut want = Vec::new();
            for s in &syms {
                match *s {
                    Sym::Lit(b) => want.push(b),
                    Sym::Match(len, d) => {
                        for _ in 0..len {
                            want.push(want[want.len() - d as usize]);
                        }
                    }
                }
            }
            assert_eq!(inflate(&stream).unwrap(), want, "n={n}");
            // Every cut loses the end-of-block code's last bits.
            for cut in 1..stream.len().min(24) {
                let short = &stream[..stream.len() - cut];
                assert_eq!(inflate(short), Err(InflateError::Truncated), "n={n} cut={cut}");
            }
        }
    }

    #[test]
    fn distance_too_far_inside_fast_loop() {
        // Five literals, a match reaching 100 back, then enough input that
        // the fast loop is still running when it decodes the match.
        let mut syms: Vec<Sym> = b"layer".iter().map(|&b| Sym::Lit(b)).collect();
        syms.push(Sym::Match(10, 100));
        syms.extend(std::iter::repeat_n(Sym::Lit(b'x'), 64));
        let stream = fixed_block(&syms);
        let mut r = BitReader::new(&stream);
        assert_eq!(r.read_bits(3).unwrap(), 0b011, "final fixed block");
        let (lit, dist) = fixed_tables();
        let mut out = Vec::with_capacity(4096);
        let got = fast_loop::<WIDE>(&mut r, &mut out, lit, dist).err();
        assert_eq!(got, Some(InflateError::DistanceTooFar));
        assert_eq!(out, b"layer");
        assert_eq!(inflate(&stream).unwrap_err(), InflateError::DistanceTooFar);
    }

    #[test]
    fn size_hint_extremes_decode_identically() {
        use crate::deflate::{deflate, CompressOptions};
        let data: Vec<u8> = (0..300_000u32).map(|i| (i / 7 % 13) as u8 + b'a').collect();
        let stream = deflate(&data, &CompressOptions::default());
        for hint in [None, Some(0), Some(1), Some(data.len() - 1), Some(64 << 20)] {
            let mut out = Vec::new();
            inflate_into(&stream, &mut out, hint).unwrap();
            assert!(out == data, "hint {hint:?}");
        }
    }
}
