//! LZ77 match finding over the 32 KiB DEFLATE window.
//!
//! Hash-chain design as in zlib: 3-byte prefixes are hashed into a head
//! table; chains of previous positions with the same hash are walked to find
//! the longest match, bounded by a configurable chain depth. One-step lazy
//! matching (emit a literal and take the next position's match when it is
//! strictly longer) recovers most of the ratio gap to optimal parsing at a
//! small cost. One [`MatchFinder`] serves the greedy and the lazy parse, and
//! hands out tokens one at a time, so the encoder holds one block of them.

/// Maximum backward distance DEFLATE can express.
const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum/maximum match lengths DEFLATE can express.
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// One LZ77 token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Token {
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
    // One 4-byte load where the input allows, the fourth byte masked off.
    let v = match data.get(pos..pos + 4) {
        Some(w) => u32::from_le_bytes(w.try_into().unwrap()) & 0x00FF_FFFF,
        None => u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], 0]),
    };
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `max`; `a < b` and `b + max ≤ data.len()`.
#[inline]
fn common_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut l = 0;
    while l + 8 <= max {
        let x = u64::from_le_bytes(data[a + l..a + l + 8].try_into().unwrap());
        let y = u64::from_le_bytes(data[b + l..b + l + 8].try_into().unwrap());
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// A zeroed table, allocated straight on the heap.
fn zeroed<const N: usize>() -> Box<[u32; N]> {
    vec![0; N].into_boxed_slice().try_into().expect("length N")
}

/// The parse as a token stream: hash chains over the 32 KiB window, and
/// with [`Lz77Options::lazy`] one step of lazy matching (emit a literal and
/// take the next position's match when it is strictly longer).
///
/// `head[h]` is the most recent position with hash `h` and
/// `prev[pos % WINDOW]` the one before it with the same hash (both +1;
/// 0 = empty). Every position that has three bytes left is inserted exactly
/// once, in order: by [`find`](Self::find) when a match is looked up
/// there, or by [`insert`](Self::insert) when a match covers it. The
/// tables carry across the caller's blocks, so cutting the stream into
/// blocks never changes a token.
pub(crate) struct MatchFinder<'a> {
    data: &'a [u8],
    opts: Lz77Options,
    head: Box<[u32; HASH_SIZE]>,
    prev: Box<[u32; WINDOW_SIZE]>,
    /// Next position to tokenize.
    pos: usize,
    /// The lazy parse's look-ahead match at `pos`, which is inserted
    /// already; the parse emitted a literal to take it.
    carried: Option<(usize, usize)>,
}

impl<'a> MatchFinder<'a> {
    pub(crate) fn new(data: &'a [u8], opts: &Lz77Options) -> Self {
        MatchFinder {
            data,
            opts: *opts,
            head: zeroed(),
            prev: zeroed(),
            pos: 0,
            carried: None,
        }
    }

    /// Bytes tokenized so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Inserts `pos` into the hash chains.
    #[inline]
    fn insert(&mut self, pos: usize) {
        if pos + MIN_MATCH <= self.data.len() {
            let h = hash3(self.data, pos);
            self.prev[pos & (WINDOW_SIZE - 1)] = self.head[h];
            self.head[h] = pos as u32 + 1;
        }
    }

    /// Inserts `pos` and returns its longest match longer than `min_len`
    /// (and than 2) as `(len, dist)`: the first chain candidate reaching
    /// the longest length, searching at most `max_chain` candidates and
    /// stopping at the first that reaches `good_enough`. One head-table
    /// access serves the lookup and the insert.
    #[inline]
    fn find(&mut self, pos: usize, min_len: usize) -> Option<(usize, usize)> {
        let data = self.data;
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        let h = hash3(data, pos);
        let mut cand = self.head[h];
        self.prev[pos & (WINDOW_SIZE - 1)] = cand;
        self.head[h] = pos as u32 + 1;

        let max_len = MAX_MATCH.min(data.len() - pos);
        let mut best_len = min_len.max(MIN_MATCH - 1);
        let mut best_dist = 0usize;
        let mut chain = self.opts.max_chain;
        while cand != 0 && chain > 0 {
            let cpos = (cand - 1) as usize;
            let dist = pos - cpos;
            if dist > WINDOW_SIZE {
                break;
            }
            // Quick reject: a candidate that differs at the byte that would
            // extend the best match cannot beat it.
            let probe = best_len.min(max_len - 1);
            if data[cpos + probe] == data[pos + probe] {
                let l = common_len(data, cpos, pos, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l >= self.opts.good_enough || l == max_len {
                        break;
                    }
                }
            }
            // `pos` took this candidate's `prev` slot: the rest of its chain
            // is out of the window anyway.
            if dist == WINDOW_SIZE {
                break;
            }
            cand = self.prev[cpos & (WINDOW_SIZE - 1)];
            chain -= 1;
        }
        (best_dist > 0).then_some((best_len, best_dist))
    }

    /// The next token, or `None` once the input is consumed.
    #[inline]
    pub(crate) fn next_token(&mut self) -> Option<Token> {
        let pos = self.pos;
        let n = self.data.len();
        if pos >= n {
            return None;
        }
        let found = match self.carried.take() {
            Some(m) => Some(m),
            None => self.find(pos, 0),
        };
        let Some((len, dist)) = found else {
            self.pos += 1;
            return Some(Token::Literal(self.data[pos]));
        };
        let mut covered = pos + 1;
        if self.opts.lazy && len < self.opts.good_enough && pos + 1 < n {
            // Any match found here is strictly longer than the current one.
            if let Some(next) = self.find(pos + 1, len) {
                self.carried = Some(next);
                self.pos += 1;
                return Some(Token::Literal(self.data[pos]));
            }
            covered = pos + 2;
        }
        for p in covered..pos + len {
            self.insert(p);
        }
        self.pos = pos + len;
        Some(Token::Match { len: len as u16, dist: dist as u16 })
    }
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

    /// The whole token stream.
    fn tokenize(data: &[u8], opts: &Lz77Options) -> Vec<Token> {
        let mut finder = MatchFinder::new(data, opts);
        std::iter::from_fn(|| finder.next_token()).collect()
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
