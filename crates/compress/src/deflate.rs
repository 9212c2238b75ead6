//! DEFLATE block encoder (RFC 1951).
//!
//! A streaming block encoder: the [`crate::lz77`] parse fills one block of
//! up to 65,536 tokens into a reused buffer, counting its symbol histograms
//! and extra bits as it goes, and the block is written before the next is
//! parsed, in whichever representation is smallest: stored, fixed Huffman,
//! or dynamic Huffman. The three costs are read from the histograms. This
//! mirrors the trade-off the paper observes in Fig. 4 — small or
//! already-compressed layers gain nothing from entropy coding, and the
//! stored path keeps their overhead to 5 bytes per 64 KiB.

use crate::bitio::BitWriter;
use crate::huffman::{canonical_codes, limited_code_lengths};
use crate::lz77::{Lz77Options, MatchFinder, Token};
use crate::tables::{
    dist_to_code, fixed_dist_lengths, fixed_lit_lengths, length_to_code, CLCL_ORDER, DIST_CODES,
    LENGTH_CODES,
};

/// End-of-block symbol in the literal/length alphabet.
const END_OF_BLOCK: usize = 256;

/// Tokens per block: each block re-derives its Huffman tables, so
/// heterogeneous files (tar archives!) get locally adapted codes.
const BLOCK_TOKENS: usize = 1 << 16;

/// Encoder configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompressOptions {
    /// Match-finder tuning.
    pub lz77: Lz77Options,
}

impl CompressOptions {
    /// Fast, lower-ratio profile.
    pub fn fast() -> Self {
        CompressOptions { lz77: Lz77Options::fast() }
    }

    /// Slow, higher-ratio profile.
    pub fn best() -> Self {
        CompressOptions { lz77: Lz77Options::best() }
    }
}

/// Compresses `data` into a raw DEFLATE stream.
pub fn deflate(data: &[u8], opts: &CompressOptions) -> Vec<u8> {
    deflate_into(data, opts, BitWriter::new())
}

/// Compresses `data` after whatever `w` holds already (the gzip header),
/// and returns the writer's bytes.
pub(crate) fn deflate_into(data: &[u8], opts: &CompressOptions, mut w: BitWriter) -> Vec<u8> {
    let mut finder = MatchFinder::new(data, &opts.lz77);
    // A block never holds more tokens than the input has bytes.
    let mut block = Block::new(BLOCK_TOKENS.min(data.len()));
    loop {
        let start = finder.pos();
        block.clear();
        while block.tokens.len() < BLOCK_TOKENS {
            match finder.next_token() {
                Some(t) => block.push(t),
                None => break,
            }
        }
        // An input of exactly k full blocks ends on the k-th: no empty
        // block follows. An empty input is one empty block.
        let last = finder.pos() == data.len();
        block.write(&mut w, &data[start..finder.pos()], last);
        if last {
            return w.finish();
        }
    }
}

/// A match token's packed form: bit 31 set, then the length code
/// (relative to 257) in bits 26..=30, the distance code in bits 21..=25,
/// the length's extra value in bits 16..=20 and the distance's in bits
/// 0..=12. A literal is its byte.
const MATCH: u32 = 1 << 31;

/// One block's tokens and the histograms they add up to.
struct Block {
    tokens: Vec<u32>,
    lit_freq: [u64; 286],
    dist_freq: [u64; 30],
    /// Length and distance extra bits over all matches: the same under
    /// every code.
    extra_bits: u64,
}

impl Block {
    fn new(capacity: usize) -> Block {
        Block {
            tokens: Vec::with_capacity(capacity),
            lit_freq: [0; 286],
            dist_freq: [0; 30],
            extra_bits: 0,
        }
    }

    fn clear(&mut self) {
        self.tokens.clear();
        self.lit_freq = [0; 286];
        self.dist_freq = [0; 30];
        self.extra_bits = 0;
    }

    #[inline]
    fn push(&mut self, t: Token) {
        match t {
            Token::Literal(b) => {
                self.lit_freq[b as usize] += 1;
                self.tokens.push(b as u32);
            }
            Token::Match { len, dist } => {
                let (lc, le, lv) = length_to_code(len);
                let (dc, de, dv) = dist_to_code(dist);
                self.lit_freq[257 + lc] += 1;
                self.dist_freq[dc] += 1;
                self.extra_bits += (le + de) as u64;
                self.tokens.push(
                    MATCH | (lc as u32) << 26 | (dc as u32) << 21 | (lv as u32) << 16 | dv as u32,
                );
            }
        }
    }

    /// Writes the block, choosing the cheapest of stored/fixed/dynamic.
    fn write(&mut self, w: &mut BitWriter, raw: &[u8], last: bool) {
        self.lit_freq[END_OF_BLOCK] += 1;
        let dyn_lit_lens = limited_code_lengths(&self.lit_freq, 15);
        let mut dyn_dist_lens = limited_code_lengths(&self.dist_freq, 15);
        // DEFLATE requires HDIST ≥ 1 code length; if the block has no
        // matches, transmit one dummy length-1 distance code.
        if dyn_dist_lens.iter().all(|&l| l == 0) {
            dyn_dist_lens[0] = 1;
        }
        let fixed_lit = fixed_lit_lengths();
        let fixed_dist = fixed_dist_lengths();

        let body_cost = |lit_lens: &[u8], dist_lens: &[u8]| -> u64 {
            let dot = |freq: &[u64], lens: &[u8]| -> u64 {
                freq.iter().zip(lens).map(|(&f, &l)| f * l as u64).sum()
            };
            dot(&self.lit_freq, lit_lens) + dot(&self.dist_freq, dist_lens) + self.extra_bits
        };
        let header = DynamicHeader::new(&dyn_lit_lens, &dyn_dist_lens);
        let dyn_cost = header.bits + body_cost(&dyn_lit_lens, &dyn_dist_lens);
        let fixed_cost = body_cost(&fixed_lit, &fixed_dist);
        // Stored: byte alignment (≤7) + per-64K 32-bit len/nlen + payload.
        let stored_cost =
            7 + (raw.len().div_ceil(0xFFFF).max(1) as u64) * 32 + raw.len() as u64 * 8;

        if stored_cost <= dyn_cost.min(fixed_cost) {
            write_stored(w, raw, last);
        } else if fixed_cost <= dyn_cost {
            w.write_bits(last as u32, 1);
            w.write_bits(0b01, 2);
            self.write_body(w, &fixed_lit, &fixed_dist);
        } else {
            w.write_bits(last as u32, 1);
            w.write_bits(0b10, 2);
            header.write(w);
            self.write_body(w, &dyn_lit_lens, &dyn_dist_lens);
        }
    }

    fn write_body(&self, w: &mut BitWriter, lit_lens: &[u8], dist_lens: &[u8]) {
        let lit_codes = canonical_codes(lit_lens);
        let dist_codes = canonical_codes(dist_lens);
        for &t in &self.tokens {
            if t & MATCH == 0 {
                let b = t as usize;
                w.write_bits(lit_codes[b] as u32, lit_lens[b] as u32);
                continue;
            }
            let lc = (t >> 26 & 31) as usize;
            let dc = (t >> 21 & 31) as usize;
            let sym = 257 + lc;
            let le = LENGTH_CODES[lc].1 as u32;
            let de = DIST_CODES[dc].1 as u32;
            let (ll, dl) = (lit_lens[sym] as u32, dist_lens[dc] as u32);
            // Code then extra bits, each pair in one write: ≤ 15 + 5 and
            // ≤ 15 + 13 bits.
            w.write_bits(lit_codes[sym] as u32 | (t >> 16 & 31) << ll, ll + le);
            w.write_bits(dist_codes[dc] as u32 | (t & 0x1FFF) << dl, dl + de);
        }
        w.write_bits(lit_codes[END_OF_BLOCK] as u32, lit_lens[END_OF_BLOCK] as u32);
    }
}

fn write_stored(w: &mut BitWriter, raw: &[u8], last: bool) {
    // An empty block is one empty stored chunk.
    let n = raw.len().div_ceil(0xFFFF).max(1);
    for i in 0..n {
        let chunk = &raw[i * 0xFFFF..((i + 1) * 0xFFFF).min(raw.len())];
        w.write_bits((last && i == n - 1) as u32, 1);
        w.write_bits(0b00, 2);
        w.align_byte();
        let len = chunk.len() as u16;
        w.write_bytes(&len.to_le_bytes());
        w.write_bytes(&(!len).to_le_bytes());
        w.write_bytes(chunk);
    }
}

/// A code-length-alphabet symbol with its extra-bits payload.
#[derive(Clone, Copy, Default)]
struct ClSym {
    sym: u8,
    extra_bits: u8,
    extra_val: u8,
}

/// Most code-length symbols a header can need: one per transmitted length.
const MAX_CL_SYMS: usize = 286 + 30;

/// Run-length encodes the literal+distance code lengths into the
/// code-length alphabet (symbols 0-18) per §3.2.7, into `out`; returns the
/// symbol count.
fn rle_code_lengths(lens: &[u8], out: &mut [ClSym; MAX_CL_SYMS]) -> usize {
    let mut n = 0;
    let mut push = |sym: u8, extra_bits: u8, extra_val: u8| {
        out[n] = ClSym { sym, extra_bits, extra_val };
        n += 1;
    };
    let mut i = 0;
    while i < lens.len() {
        let v = lens[i];
        let mut run = 1;
        while i + run < lens.len() && lens[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut rem = run;
            while rem >= 11 {
                let take = rem.min(138);
                push(18, 7, (take - 11) as u8);
                rem -= take;
            }
            if rem >= 3 {
                push(17, 3, (rem - 3) as u8);
                rem = 0;
            }
            for _ in 0..rem {
                push(0, 0, 0);
            }
        } else {
            push(v, 0, 0);
            let mut rem = run - 1;
            while rem >= 3 {
                let take = rem.min(6);
                push(16, 2, (take - 3) as u8);
                rem -= take;
            }
            for _ in 0..rem {
                push(v, 0, 0);
            }
        }
        i += run;
    }
    n
}

/// A dynamic block's header (§3.2.7), built once for both its cost and
/// its bits.
struct DynamicHeader {
    hlit: usize,
    hdist: usize,
    hclen: usize,
    cl_lens: Vec<u8>,
    syms: [ClSym; MAX_CL_SYMS],
    nsyms: usize,
    /// The header's size in bits.
    bits: u64,
}

impl DynamicHeader {
    fn new(lit_lens: &[u8], dist_lens: &[u8]) -> DynamicHeader {
        let hlit = trimmed_len(lit_lens, 257);
        let hdist = trimmed_len(dist_lens, 1);
        let mut all = [0u8; MAX_CL_SYMS];
        all[..hlit].copy_from_slice(&lit_lens[..hlit]);
        all[hlit..hlit + hdist].copy_from_slice(&dist_lens[..hdist]);
        let mut syms = [ClSym::default(); MAX_CL_SYMS];
        let nsyms = rle_code_lengths(&all[..hlit + hdist], &mut syms);
        let mut cl_freq = [0u64; 19];
        for s in &syms[..nsyms] {
            cl_freq[s.sym as usize] += 1;
        }
        let cl_lens = limited_code_lengths(&cl_freq, 7);
        let hclen = CLCL_ORDER
            .iter()
            .rposition(|&s| cl_lens[s] != 0)
            .map(|p| p + 1)
            .unwrap_or(4)
            .max(4);
        let mut bits = 5 + 5 + 4 + hclen as u64 * 3;
        for s in &syms[..nsyms] {
            bits += cl_lens[s.sym as usize] as u64 + s.extra_bits as u64;
        }
        DynamicHeader { hlit, hdist, hclen, cl_lens, syms, nsyms, bits }
    }

    fn write(&self, w: &mut BitWriter) {
        let cl_codes = canonical_codes(&self.cl_lens);
        w.write_bits((self.hlit - 257) as u32, 5);
        w.write_bits((self.hdist - 1) as u32, 5);
        w.write_bits((self.hclen - 4) as u32, 4);
        for &s in CLCL_ORDER.iter().take(self.hclen) {
            w.write_bits(self.cl_lens[s] as u32, 3);
        }
        for s in &self.syms[..self.nsyms] {
            let sym = s.sym as usize;
            w.write_bits(cl_codes[sym] as u32, self.cl_lens[sym] as u32);
            if s.extra_bits > 0 {
                w.write_bits(s.extra_val as u32, s.extra_bits as u32);
            }
        }
    }
}

fn trimmed_len(lens: &[u8], min: usize) -> usize {
    lens.iter()
        .rposition(|&l| l != 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let compressed = deflate(data, &CompressOptions::default());
        let back = inflate(&compressed).expect("inflate");
        assert_eq!(back, data, "roundtrip mismatch ({} bytes)", data.len());
        compressed
    }

    #[test]
    fn empty_input() {
        roundtrip(b"");
    }

    #[test]
    fn small_inputs() {
        for data in [&b"a"[..], b"ab", b"abc", b"hello world"] {
            roundtrip(data);
        }
    }

    #[test]
    fn text_compresses_well() {
        let text = "The Docker registry is a platform for storing and sharing container images. "
            .repeat(200);
        let c = roundtrip(text.as_bytes());
        assert!(c.len() * 5 < text.len(), "ratio too low: {} -> {}", text.len(), c.len());
    }

    #[test]
    fn incompressible_stays_near_original() {
        let mut x = 0xdeadbeefu64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let c = roundtrip(&data);
        // Stored blocks bound the expansion to ~5 bytes / 64 KiB + 1.
        assert!(c.len() < data.len() + 64, "expanded too much: {}", c.len());
    }

    #[test]
    fn rle_heavy_input() {
        let mut data = Vec::new();
        for b in 0..=255u8 {
            data.extend(std::iter::repeat_n(b, 517));
        }
        let c = roundtrip(&data);
        assert!(c.len() * 20 < data.len());
    }

    #[test]
    fn multi_block_input() {
        // Enough tokens to force several blocks.
        let data: Vec<u8> = (0..700_000u32).map(|i| (i % 254) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn all_profiles() {
        let text = "pull push layer manifest registry image ".repeat(500);
        for opts in [CompressOptions::fast(), CompressOptions::default(), CompressOptions::best()] {
            let c = deflate(text.as_bytes(), &opts);
            assert_eq!(inflate(&c).unwrap(), text.as_bytes());
        }
    }

    #[test]
    fn rle_code_lengths_reconstruct() {
        let lens = [0u8, 0, 0, 0, 0, 3, 3, 3, 3, 3, 3, 3, 3, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2];
        let mut syms = [ClSym::default(); MAX_CL_SYMS];
        let n = rle_code_lengths(&lens, &mut syms);
        let syms = &syms[..n];
        // Re-expand.
        let mut out = Vec::new();
        for s in syms {
            match s.sym {
                16 => {
                    let v = *out.last().unwrap();
                    for _ in 0..s.extra_val + 3 {
                        out.push(v);
                    }
                }
                17 => out.extend(std::iter::repeat_n(0, s.extra_val as usize + 3)),
                18 => out.extend(std::iter::repeat_n(0, s.extra_val as usize + 11)),
                v => out.push(v),
            }
        }
        assert_eq!(out, lens);
    }
}
