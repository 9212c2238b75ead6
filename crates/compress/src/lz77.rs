//! LZ77 match finding over the 32 KiB DEFLATE window.
//!
//! Hash-chain design as in zlib: 3-byte prefixes are hashed into a head
//! table; chains of previous positions with the same hash are walked to find
//! the longest match, bounded by a configurable chain depth. One-step lazy
//! matching (emit a literal and take the next position's match when it is
//! strictly longer) recovers most of the ratio gap to optimal parsing at a
//! small cost.

/// Maximum backward distance DEFLATE can express.
const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum/maximum match lengths DEFLATE can express.
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// One LZ77 token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match { len: u16, dist: u16 },
}

/// Tuning knobs for the match finder.
#[derive(Clone, Copy, Debug)]
pub struct Lz77Options {
    /// Maximum hash-chain positions examined per match attempt.
    pub max_chain: usize,
    /// Enable one-step lazy matching.
    pub lazy: bool,
    /// Stop searching when a match at least this long is found.
    pub good_enough: usize,
}

impl Default for Lz77Options {
    fn default() -> Self {
        Lz77Options { max_chain: 128, lazy: true, good_enough: 64 }
    }
}

impl Lz77Options {
    /// Fast profile: shallow chains, greedy parse.
    pub fn fast() -> Self {
        Lz77Options { max_chain: 16, lazy: false, good_enough: 16 }
    }

    /// Thorough profile: deep chains.
    pub fn best() -> Self {
        Lz77Options { max_chain: 1024, lazy: true, good_enough: 258 }
    }
}

#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], 0]);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Tokenizes `data` into literals and matches.
pub fn tokenize(data: &[u8], opts: &Lz77Options) -> Vec<Token> {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Expands tokens back into bytes: the reference decoder.
    fn expand(tokens: &[Token]) -> Vec<u8> {
        let mut out = Vec::new();
        for t in tokens {
            match *t {
                Token::Literal(b) => out.push(b),
                Token::Match { len, dist } => {
                    let start = out.len() - dist as usize;
                    // Byte-by-byte: overlapping copies (dist < len) must replicate.
                    for i in 0..len as usize {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
            }
        }
        out
    }

    fn roundtrip(data: &[u8], opts: &Lz77Options) {
        let tokens = tokenize(data, opts);
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            roundtrip(data, &Lz77Options::default());
        }
    }

    #[test]
    fn repetitive_input_compresses() {
        let data = b"abcabcabcabcabcabcabcabcabc".to_vec();
        let tokens = tokenize(&data, &Lz77Options::default());
        assert!(tokens.len() < data.len() / 2, "{tokens:?}");
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn overlapping_match_rle() {
        // "aaaa..." must produce dist=1 matches with len > dist.
        let data = vec![b'a'; 1000];
        let tokens = tokenize(&data, &Lz77Options::default());
        assert!(tokens.len() <= 8, "run-length should collapse: {}", tokens.len());
        assert_eq!(expand(&tokens), data);
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { dist: 1, .. })));
    }

    #[test]
    fn incompressible_input() {
        // A pseudo-random byte stream: almost all literals, still correct.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        roundtrip(&data, &Lz77Options::default());
    }

    #[test]
    fn long_range_match_within_window() {
        let mut data = vec![0u8; 0];
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        data.extend(std::iter::repeat_n(b'.', 20_000));
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        let tokens = tokenize(&data, &Lz77Options::best());
        assert_eq!(expand(&tokens), data);
        assert!(tokens
            .iter()
            .any(|t| matches!(t, Token::Match { dist, .. } if *dist as usize > 10_000)));
    }

    #[test]
    fn no_match_beyond_window() {
        let mut data = Vec::new();
        data.extend_from_slice(b"unique-prefix-string-xyz");
        // Push the prefix out of the 32 KiB window with incompressible noise.
        let mut x = 7u64;
        data.extend((0..WINDOW_SIZE + 100).map(|_| {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (x >> 33) as u8
        }));
        data.extend_from_slice(b"unique-prefix-string-xyz");
        let tokens = tokenize(&data, &Lz77Options::best());
        assert_eq!(expand(&tokens), data);
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!((*dist as usize) <= WINDOW_SIZE);
            }
        }
    }

    #[test]
    fn all_profiles_roundtrip() {
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| (i % 97).to_le_bytes()).collect();
        for opts in [Lz77Options::fast(), Lz77Options::default(), Lz77Options::best()] {
            roundtrip(&data, &opts);
        }
    }

    #[test]
    fn max_match_length_respected() {
        let data = vec![b'z'; 5000];
        let tokens = tokenize(&data, &Lz77Options::default());
        for t in &tokens {
            if let Token::Match { len, .. } = t {
                assert!((*len as usize) <= MAX_MATCH);
                assert!((*len as usize) >= MIN_MATCH);
            }
        }
        assert_eq!(expand(&tokens), data);
    }
}
