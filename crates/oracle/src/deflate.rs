//! The whole-input DEFLATE (RFC 1951) encoder and its gzip (RFC 1952)
//! framing, as `dhub-compress` shipped them before its streaming block
//! encoder: the input is tokenized into one `Vec` of tokens, each
//! 65,536-token block is costed by walking its tokens, package-merge
//! clones a symbol list into every coin, codes are found by scanning the
//! length and distance tables, and bits go out one byte at a time. The
//! streaming encoder must emit exactly these bytes.

use crate::inflate::{fixed_lit_lengths, CLCL_ORDER, DIST_CODES, FIXED_DIST_LENGTHS, LENGTH_CODES};
use dhub_compress::huffman::canonical_codes;
use dhub_compress::lz77::Lz77Options;
use dhub_compress::CompressOptions;
use dhub_digest::{Crc32, Crc32Kernel};

/// Maximum backward distance DEFLATE can express.
const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum/maximum match lengths DEFLATE can express.
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// End-of-block symbol in the literal/length alphabet.
const END_OF_BLOCK: usize = 256;

/// One LZ77 token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Token {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

/// LSB-first bit writer that emits each byte as soon as it fills.
#[derive(Default)]
struct ByteWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl ByteWriter {
    fn write_bits(&mut self, value: u32, n: u32) {
        self.acc |= (value as u64) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    fn align_byte(&mut self) {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// `(code_index, extra_bits, extra_value)` of a match length, by linear
/// scan; `code_index` is relative to symbol 257.
fn length_to_code(len: u16) -> (usize, u8, u16) {
    for i in (0..LENGTH_CODES.len()).rev() {
        let (base, extra) = LENGTH_CODES[i];
        if len >= base {
            // Code 285 (index 28) encodes exactly 258.
            if i == 28 && len != 258 {
                continue;
            }
            return (i, extra, len - base);
        }
    }
    unreachable!("length out of range")
}

/// `(code, extra_bits, extra_value)` of a distance, by linear scan.
fn dist_to_code(dist: u16) -> (usize, u8, u16) {
    for i in (0..DIST_CODES.len()).rev() {
        let (base, extra) = DIST_CODES[i];
        if dist >= base {
            return (i, extra, dist - base);
        }
    }
    unreachable!("distance out of range")
}

fn hash3(data: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], 0]);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Tokenizes all of `data` into literals and matches.
fn tokenize(data: &[u8], opts: &Lz77Options) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH + 1 {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }

    // head[h] = most recent position with hash h (+1; 0 = empty).
    // prev[pos % WINDOW] = previous position with the same hash (+1).
    let mut head = vec![0u32; HASH_SIZE];
    let mut prev = vec![0u32; WINDOW_SIZE];

    let insert = |head: &mut [u32], prev: &mut [u32], data: &[u8], pos: usize| {
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            prev[pos % WINDOW_SIZE] = head[h];
            head[h] = pos as u32 + 1;
        }
    };

    let find_match = |head: &[u32], prev: &[u32], pos: usize, min_len: usize| -> Option<(usize, usize)> {
        if pos + MIN_MATCH > n {
            return None;
        }
        let max_len = MAX_MATCH.min(n - pos);
        if max_len < MIN_MATCH {
            return None;
        }
        let h = hash3(data, pos);
        let mut cand = head[h];
        let mut best_len = min_len.max(MIN_MATCH - 1);
        let mut best_dist = 0usize;
        let mut chain = opts.max_chain;
        while cand != 0 && chain > 0 {
            let cpos = (cand - 1) as usize;
            if cpos >= pos || pos - cpos > WINDOW_SIZE {
                break;
            }
            // Quick reject: compare the byte that would extend the best match.
            if best_dist == 0 || data[cpos + best_len.min(max_len - 1)] == data[pos + best_len.min(max_len - 1)] {
                let mut l = 0usize;
                while l < max_len && data[cpos + l] == data[pos + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = pos - cpos;
                    if l >= opts.good_enough || l == max_len {
                        break;
                    }
                }
            }
            cand = prev[cpos % WINDOW_SIZE];
            chain -= 1;
        }
        if best_dist > 0 && best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    };

    let mut pos = 0usize;
    while pos < n {
        let cur = find_match(&head, &prev, pos, 0);
        match cur {
            None => {
                tokens.push(Token::Literal(data[pos]));
                insert(&mut head, &mut prev, data, pos);
                pos += 1;
            }
            Some((len, dist)) => {
                // Lazy evaluation: if the next position has a strictly longer
                // match, emit a literal here instead.
                if opts.lazy && len < opts.good_enough && pos + 1 < n {
                    insert(&mut head, &mut prev, data, pos);
                    if let Some((nlen, _)) = find_match(&head, &prev, pos + 1, len) {
                        if nlen > len {
                            tokens.push(Token::Literal(data[pos]));
                            pos += 1;
                            continue;
                        }
                    }
                    // Keep the current match; position `pos` is already inserted.
                    tokens.push(Token::Match { len: len as u16, dist: dist as u16 });
                    for p in pos + 1..pos + len {
                        insert(&mut head, &mut prev, data, p);
                    }
                    pos += len;
                } else {
                    tokens.push(Token::Match { len: len as u16, dist: dist as u16 });
                    for p in pos..pos + len {
                        insert(&mut head, &mut prev, data, p);
                    }
                    pos += len;
                }
            }
        }
    }
    tokens
}

/// Optimal code lengths for `freqs` limited to `max_len` bits, by
/// package-merge over coins that each carry the symbols they contain.
pub fn limited_code_lengths_reference(freqs: &[u64], max_len: u8) -> Vec<u8> {
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

/// Compresses `data` into a raw DEFLATE stream.
pub fn deflate_reference(data: &[u8], opts: &CompressOptions) -> Vec<u8> {
    let tokens = tokenize(data, &opts.lz77);
    let mut w = ByteWriter::default();
    const BLOCK_TOKENS: usize = 1 << 16;
    if tokens.is_empty() {
        write_block(&mut w, data, &[], true);
        return w.finish();
    }
    let mut consumed_bytes = 0usize;
    let nblocks = tokens.len().div_ceil(BLOCK_TOKENS);
    for (bi, chunk) in tokens.chunks(BLOCK_TOKENS).enumerate() {
        let block_bytes: usize = chunk
            .iter()
            .map(|t| match t {
                Token::Literal(_) => 1,
                Token::Match { len, .. } => *len as usize,
            })
            .sum();
        let raw = &data[consumed_bytes..consumed_bytes + block_bytes];
        write_block(&mut w, raw, chunk, bi == nblocks - 1);
        consumed_bytes += block_bytes;
    }
    w.finish()
}

/// Compresses `data` into a single gzip member (MTIME 0, OS unknown), the
/// CRC-32 on the scalar kernel.
pub fn gzip_compress_reference(data: &[u8], opts: &CompressOptions) -> Vec<u8> {
    let body = deflate_reference(data, opts);
    let mut crc = Crc32::with_kernel(Crc32Kernel::Scalar).expect("the scalar kernel always runs");
    crc.update(data);
    let mut out = vec![0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255];
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc.finalize().to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Writes one block, choosing the cheapest of stored/fixed/dynamic.
fn write_block(w: &mut ByteWriter, raw: &[u8], tokens: &[Token], last: bool) {
    // Gather symbol frequencies (including the mandatory end-of-block).
    let mut lit_freq = [0u64; 286];
    let mut dist_freq = [0u64; 30];
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                let (lc, _, _) = length_to_code(len);
                lit_freq[257 + lc] += 1;
                let (dc, _, _) = dist_to_code(dist);
                dist_freq[dc] += 1;
            }
        }
    }
    lit_freq[END_OF_BLOCK] += 1;

    let dyn_lit_lens = limited_code_lengths_reference(&lit_freq, 15);
    let mut dyn_dist_lens = limited_code_lengths_reference(&dist_freq, 15);
    // DEFLATE requires HDIST ≥ 1 code length; if the block has no matches,
    // transmit one dummy length-1 distance code.
    if dyn_dist_lens.iter().all(|&l| l == 0) {
        dyn_dist_lens[0] = 1;
    }

    let fixed_lit = fixed_lit_lengths();
    let fixed_dist = FIXED_DIST_LENGTHS;

    let body_cost = |lit_lens: &[u8], dist_lens: &[u8]| -> u64 {
        let mut bits = 0u64;
        for t in tokens {
            match *t {
                Token::Literal(b) => bits += lit_lens[b as usize] as u64,
                Token::Match { len, dist } => {
                    let (lc, le, _) = length_to_code(len);
                    bits += lit_lens[257 + lc] as u64 + le as u64;
                    let (dc, de, _) = dist_to_code(dist);
                    bits += dist_lens[dc] as u64 + de as u64;
                }
            }
        }
        bits + lit_lens[END_OF_BLOCK] as u64
    };

    let (header, cl_syms) = dynamic_header(&dyn_lit_lens, &dyn_dist_lens);
    let dyn_cost = header + body_cost(&dyn_lit_lens, &dyn_dist_lens);
    let fixed_cost = body_cost(&fixed_lit, &fixed_dist);
    // Stored: byte alignment (≤7) + per-64K 32-bit len/nlen + payload.
    let stored_cost = 7 + (raw.len().div_ceil(0xFFFF).max(1) as u64) * 32 + raw.len() as u64 * 8;

    if stored_cost <= dyn_cost.min(fixed_cost) {
        write_stored(w, raw, last);
    } else if fixed_cost <= dyn_cost {
        w.write_bits(last as u32, 1);
        w.write_bits(0b01, 2);
        write_body(w, tokens, &fixed_lit, &fixed_dist);
    } else {
        w.write_bits(last as u32, 1);
        w.write_bits(0b10, 2);
        write_dynamic_header(w, &dyn_lit_lens, &dyn_dist_lens, &cl_syms);
        write_body(w, tokens, &dyn_lit_lens, &dyn_dist_lens);
    }
}

fn write_stored(w: &mut ByteWriter, raw: &[u8], last: bool) {
    let chunks: Vec<&[u8]> = if raw.is_empty() { vec![&[][..]] } else { raw.chunks(0xFFFF).collect() };
    let n = chunks.len();
    for (i, chunk) in chunks.into_iter().enumerate() {
        let is_last = last && i == n - 1;
        w.write_bits(is_last as u32, 1);
        w.write_bits(0b00, 2);
        w.align_byte();
        let len = chunk.len() as u16;
        w.write_bytes(&len.to_le_bytes());
        w.write_bytes(&(!len).to_le_bytes());
        w.write_bytes(chunk);
    }
}

fn write_body(w: &mut ByteWriter, tokens: &[Token], lit_lens: &[u8], dist_lens: &[u8]) {
    let lit_codes = canonical_codes(lit_lens);
    let dist_codes = canonical_codes(dist_lens);
    for t in tokens {
        match *t {
            Token::Literal(b) => {
                w.write_bits(lit_codes[b as usize] as u32, lit_lens[b as usize] as u32);
            }
            Token::Match { len, dist } => {
                let (lc, le, lv) = length_to_code(len);
                let sym = 257 + lc;
                w.write_bits(lit_codes[sym] as u32, lit_lens[sym] as u32);
                if le > 0 {
                    w.write_bits(lv as u32, le as u32);
                }
                let (dc, de, dv) = dist_to_code(dist);
                w.write_bits(dist_codes[dc] as u32, dist_lens[dc] as u32);
                if de > 0 {
                    w.write_bits(dv as u32, de as u32);
                }
            }
        }
    }
    w.write_bits(lit_codes[END_OF_BLOCK] as u32, lit_lens[END_OF_BLOCK] as u32);
}

/// A code-length-alphabet symbol with its extra-bits payload.
#[derive(Clone, Copy)]
struct ClSym {
    sym: u8,
    extra_bits: u8,
    extra_val: u8,
}

/// Run-length encodes the literal+distance code lengths into the
/// code-length alphabet (symbols 0-18) per §3.2.7.
fn rle_code_lengths(lens: &[u8]) -> Vec<ClSym> {
    let mut out = Vec::new();
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
                out.push(ClSym { sym: 18, extra_bits: 7, extra_val: (take - 11) as u8 });
                rem -= take;
            }
            if rem >= 3 {
                out.push(ClSym { sym: 17, extra_bits: 3, extra_val: (rem - 3) as u8 });
                rem = 0;
            }
            for _ in 0..rem {
                out.push(ClSym { sym: 0, extra_bits: 0, extra_val: 0 });
            }
        } else {
            out.push(ClSym { sym: v, extra_bits: 0, extra_val: 0 });
            let mut rem = run - 1;
            while rem >= 3 {
                let take = rem.min(6);
                out.push(ClSym { sym: 16, extra_bits: 2, extra_val: (take - 3) as u8 });
                rem -= take;
            }
            for _ in 0..rem {
                out.push(ClSym { sym: v, extra_bits: 0, extra_val: 0 });
            }
        }
        i += run;
    }
    out
}

/// Computes the dynamic header cost in bits and the RLE symbol stream.
fn dynamic_header(lit_lens: &[u8], dist_lens: &[u8]) -> (u64, Vec<ClSym>) {
    let hlit = trimmed_len(lit_lens, 257);
    let hdist = trimmed_len(dist_lens, 1);
    let mut all = Vec::with_capacity(hlit + hdist);
    all.extend_from_slice(&lit_lens[..hlit]);
    all.extend_from_slice(&dist_lens[..hdist]);
    let syms = rle_code_lengths(&all);
    let mut cl_freq = [0u64; 19];
    for s in &syms {
        cl_freq[s.sym as usize] += 1;
    }
    let cl_lens = limited_code_lengths_reference(&cl_freq, 7);
    let hclen = CLCL_ORDER
        .iter()
        .rposition(|&s| cl_lens[s] != 0)
        .map(|p| p + 1)
        .unwrap_or(4)
        .max(4);
    let mut bits = 5 + 5 + 4 + hclen as u64 * 3;
    for s in &syms {
        bits += cl_lens[s.sym as usize] as u64 + s.extra_bits as u64;
    }
    (bits, syms)
}

fn trimmed_len(lens: &[u8], min: usize) -> usize {
    lens.iter()
        .rposition(|&l| l != 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(min)
}

fn write_dynamic_header(w: &mut ByteWriter, lit_lens: &[u8], dist_lens: &[u8], syms: &[ClSym]) {
    let hlit = trimmed_len(lit_lens, 257);
    let hdist = trimmed_len(dist_lens, 1);
    let mut cl_freq = [0u64; 19];
    for s in syms {
        cl_freq[s.sym as usize] += 1;
    }
    let cl_lens = limited_code_lengths_reference(&cl_freq, 7);
    let cl_codes = canonical_codes(&cl_lens);
    let hclen = CLCL_ORDER
        .iter()
        .rposition(|&s| cl_lens[s] != 0)
        .map(|p| p + 1)
        .unwrap_or(4)
        .max(4);

    w.write_bits((hlit - 257) as u32, 5);
    w.write_bits((hdist - 1) as u32, 5);
    w.write_bits((hclen - 4) as u32, 4);
    for &s in CLCL_ORDER.iter().take(hclen) {
        w.write_bits(cl_lens[s] as u32, 3);
    }
    for s in syms {
        w.write_bits(cl_codes[s.sym as usize] as u32, cl_lens[s.sym as usize] as u32);
        if s.extra_bits > 0 {
            w.write_bits(s.extra_val as u32, s.extra_bits as u32);
        }
    }
}
