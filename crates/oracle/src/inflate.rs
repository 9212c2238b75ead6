//! The bit-by-bit DEFLATE (RFC 1951) decoder and its gzip (RFC 1952)
//! framing. Every symbol goes through [`Decoder::decode`] one bit at a
//! time, from this file's own copies of the code tables and its own
//! dynamic-header parser, so a table or header slip in `dhub-compress`
//! shows up as a disagreement instead of being shared by both sides.

use dhub_compress::bitio::{BitReader, BitWriter};
use dhub_compress::huffman::{canonical_codes, Decoder};
use dhub_compress::{GzipError, InflateError};
use dhub_digest::{Crc32, Crc32Kernel};

/// Length codes 257..=285: `(base_length, extra_bits)` (§3.2.5).
pub(crate) const LENGTH_CODES: [(u16, u8); 29] = [
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1),
    (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3),
    (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5),
    (258, 0),
];

/// Distance codes 0..=29: `(base_distance, extra_bits)` (§3.2.5).
pub(crate) const DIST_CODES: [(u16, u8); 30] = [
    (1, 0), (2, 0), (3, 0), (4, 0),
    (5, 1), (7, 1),
    (9, 2), (13, 2),
    (17, 3), (25, 3),
    (33, 4), (49, 4),
    (65, 5), (97, 5),
    (129, 6), (193, 6),
    (257, 7), (385, 7),
    (513, 8), (769, 8),
    (1025, 9), (1537, 9),
    (2049, 10), (3073, 10),
    (4097, 11), (6145, 11),
    (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
];

/// Order in which code-length-code lengths are transmitted (§3.2.7).
pub(crate) const CLCL_ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

/// Fixed literal/length code lengths (§3.2.6).
pub(crate) fn fixed_lit_lengths() -> [u8; 288] {
    std::array::from_fn(|i| match i {
        0..=143 => 8,
        144..=255 => 9,
        256..=279 => 7,
        _ => 8,
    })
}

/// Fixed distance code lengths: all 32 codes are 5 bits (§3.2.6).
pub(crate) const FIXED_DIST_LENGTHS: [u8; 32] = [5; 32];

/// Decompresses a raw DEFLATE stream, one bit at a time.
pub fn inflate_reference(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::with_capacity(data.len() * 3);
    loop {
        let last = r.read_bit()? == 1;
        match r.read_bits(2)? {
            0b00 => stored_block(&mut r, &mut out)?,
            0b01 => {
                let lit = Decoder::new(&fixed_lit_lengths()).expect("fixed table");
                let dist = Decoder::new(&FIXED_DIST_LENGTHS).expect("fixed table");
                huffman_block(&mut r, &mut out, &lit, &dist)?;
            }
            0b10 => {
                let (lit, dist) = dynamic_tables(&mut r)?;
                huffman_block(&mut r, &mut out, &lit, &dist)?;
            }
            _ => return Err(InflateError::BadBlockType),
        }
        if last {
            return Ok(out);
        }
    }
}

fn stored_block(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<(), InflateError> {
    r.align_byte();
    let len = r.read_bits(16)? as u16;
    let nlen = r.read_bits(16)? as u16;
    if len != !nlen {
        return Err(InflateError::BadStoredLength);
    }
    for _ in 0..len {
        out.push(r.read_bits(8)? as u8);
    }
    Ok(())
}

/// Parses the HLIT/HDIST/HCLEN header and the code-length stream into the
/// literal/length and distance decoders.
fn dynamic_tables(r: &mut BitReader<'_>) -> Result<(Decoder, Decoder), InflateError> {
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
    let mut lens: Vec<u8> = Vec::with_capacity(hlit + hdist);
    while lens.len() < hlit + hdist {
        let (value, repeat) = match cl_dec.decode(r)? {
            s @ 0..=15 => (s as u8, 1),
            16 => (*lens.last().ok_or(InflateError::BadHuffmanTable)?, r.read_bits(2)? + 3),
            17 => (0, r.read_bits(3)? + 3),
            18 => (0, r.read_bits(7)? + 11),
            _ => return Err(InflateError::BadSymbol),
        };
        lens.extend(std::iter::repeat_n(value, repeat as usize));
    }
    if lens.len() != hlit + hdist {
        // A repeat ran past the boundary between the two tables.
        return Err(InflateError::BadHuffmanTable);
    }
    Ok((Decoder::new(&lens[..hlit])?, Decoder::new(&lens[hlit..])?))
}

fn huffman_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &Decoder,
    dist: &Decoder,
) -> Result<(), InflateError> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let (base, extra) = LENGTH_CODES[sym as usize - 257];
                let len = base as usize + r.read_bits(extra as u32)? as usize;
                let dsym = dist.decode(r)?;
                if dsym as usize >= DIST_CODES.len() {
                    return Err(InflateError::BadSymbol);
                }
                let (dbase, dextra) = DIST_CODES[dsym as usize];
                let d = dbase as usize + r.read_bits(dextra as u32)? as usize;
                if d > out.len() {
                    return Err(InflateError::DistanceTooFar);
                }
                let start = out.len() - d;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
}

/// Decompresses a single gzip member over [`inflate_reference`], checking
/// the trailer CRC-32 on the scalar kernel and the ISIZE.
pub fn gzip_decompress_reference(data: &[u8]) -> Result<Vec<u8>, GzipError> {
    let (body, want_crc, want_len) = gzip_frame(data)?;
    let out = inflate_reference(body).map_err(GzipError::Deflate)?;
    let mut crc = Crc32::with_kernel(Crc32Kernel::Scalar).expect("the scalar kernel always runs");
    crc.update(&out);
    let got_crc = crc.finalize();
    if got_crc != want_crc {
        return Err(GzipError::BadCrc { want: want_crc, got: got_crc });
    }
    if out.len() as u32 != want_len {
        return Err(GzipError::BadLength { want: want_len, got: out.len() as u32 });
    }
    Ok(out)
}

/// Parses the member header, returning `(body, want_crc, want_len)`.
fn gzip_frame(data: &[u8]) -> Result<(&[u8], u32, u32), GzipError> {
    if data.len() < 18 {
        return Err(GzipError::Truncated);
    }
    let flg = data[3];
    // Magic, method 8 (DEFLATE), and the reserved flag bits clear.
    if data[0..3] != [0x1f, 0x8b, 8] || flg & 0xE0 != 0 {
        return Err(GzipError::BadHeader);
    }
    let mut pos = 10usize;
    if flg & 0x04 != 0 {
        // FEXTRA
        if pos + 2 > data.len() {
            return Err(GzipError::BadOptionalField);
        }
        pos += 2 + u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
    }
    for flag in [0x08u8, 0x10] {
        // FNAME, FCOMMENT: zero-terminated strings.
        if flg & flag != 0 {
            let rest = data.get(pos..).ok_or(GzipError::BadOptionalField)?;
            pos += rest.iter().position(|&b| b == 0).ok_or(GzipError::BadOptionalField)? + 1;
        }
    }
    if flg & 0x02 != 0 {
        // FHCRC
        pos += 2;
    }
    if pos + 8 > data.len() {
        return Err(GzipError::BadOptionalField);
    }
    let trailer = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"));
    Ok((&data[pos..data.len() - 8], trailer(data.len() - 8), trailer(data.len() - 4)))
}

/// One symbol of a hand-built fixed-Huffman block.
#[derive(Clone)]
pub enum Sym {
    Lit(u8),
    /// A match of `(length, distance)`.
    Match(u16, u16),
}

/// A final fixed-Huffman block of `syms`, then EOB: streams whose every
/// symbol boundary a test chooses.
pub fn fixed_block(syms: &[Sym]) -> Vec<u8> {
    let (lit_lens, dist_lens) = (fixed_lit_lengths(), FIXED_DIST_LENGTHS);
    let (lit_codes, dist_codes) = (canonical_codes(&lit_lens), canonical_codes(&dist_lens));
    // Code index and extra-bit value of `v` in an ascending base table.
    let code = |table: &[(u16, u8)], v: u16| {
        let i = table.iter().rposition(|&(base, _)| base <= v).expect("value in range");
        (i, table[i].1 as u32, (v - table[i].0) as u32)
    };
    let mut w = BitWriter::new();
    w.write_bits(1, 1);
    w.write_bits(0b01, 2);
    for s in syms {
        match *s {
            Sym::Lit(b) => w.write_bits(lit_codes[b as usize] as u32, lit_lens[b as usize] as u32),
            Sym::Match(len, d) => {
                let (lc, extra, value) = code(&LENGTH_CODES, len);
                w.write_bits(lit_codes[257 + lc] as u32, lit_lens[257 + lc] as u32);
                w.write_bits(value, extra);
                let (dc, dextra, dvalue) = code(&DIST_CODES, d);
                w.write_bits(dist_codes[dc] as u32, dist_lens[dc] as u32);
                w.write_bits(dvalue, dextra);
            }
        }
    }
    w.write_bits(lit_codes[256] as u32, lit_lens[256] as u32);
    w.finish()
}
