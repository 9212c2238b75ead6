//! The streaming block encoder against the frozen whole-input one: for the
//! `fast`, `default` and `best` profiles, `gzip_compress` must emit exactly
//! the bytes `dhub_oracle::gzip_compress_reference` does, and the
//! package-merge must assign exactly the reference's code lengths. A layer
//! rebuilt from the same tar is the same layer only if every compressed
//! byte is the same.
//!
//! The encoder holds one block of tokens, not the whole input's, so what
//! it allocates is bounded by its output: ≤ 4 × output + 1 MiB, counted by
//! the oracle's allocator.

use dhub_compress::huffman::limited_code_lengths;
use dhub_compress::{deflate, gzip_compress, CompressOptions};
use dhub_oracle::alloc::{allocs_during, CountingAlloc};
use dhub_oracle::{deflate_reference, gzip_compress_reference, limited_code_lengths_reference};
use proptest::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn profiles() -> [(&'static str, CompressOptions); 3] {
    [
        ("fast", CompressOptions::fast()),
        ("default", CompressOptions::default()),
        ("best", CompressOptions::best()),
    ]
}

/// Asserts byte identity with the reference under every profile, and the
/// allocation bound.
fn check(data: &[u8], what: &str) {
    for (name, opts) in profiles() {
        let (gz, used) = allocs_during(|| gzip_compress(data, &opts));
        let want = gzip_compress_reference(data, &opts);
        assert!(gz == want, "{what}, {name}: {} bytes vs the reference's {}", gz.len(), want.len());
        assert_eq!(deflate(data, &opts), deflate_reference(data, &opts), "{what}, {name}: raw");
        let bound = 4 * gz.len() + (1 << 20);
        assert!(used.bytes <= bound, "{what}, {name}: allocated {} bytes, bound {bound}", used.bytes);
    }
}

/// splitmix64: the inputs' only source of randomness.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut next = rng(seed);
    (0..n).map(|_| next() as u8).collect()
}

/// The first `n` bytes of the byte de Bruijn sequence of order 3: no
/// 3-byte string occurs twice, so the parse is `n` literals exactly.
fn unique_triples(n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n + 3);
    // Lyndon words over 0..=255 of length ≤ 3 in order (Duval); those whose
    // length divides 3, concatenated.
    let mut w: Vec<u8> = vec![0];
    while out.len() < n {
        if 3 % w.len() == 0 {
            out.extend_from_slice(&w);
        }
        let m = w.len();
        while w.len() < 3 {
            w.push(w[w.len() - m]);
        }
        while w.last() == Some(&255) {
            w.pop();
        }
        let Some(last) = w.last_mut() else { break };
        *last += 1;
    }
    out.truncate(n);
    out
}

/// Words drawn with a skew, in lines: text-like input.
fn text(n: usize, seed: u64) -> Vec<u8> {
    const WORDS: [&str; 16] = [
        "layer", "image", "docker", "registry", "the", "pull", "manifest", "sha256", "of",
        "ubuntu", "RUN", "apt-get", "install", "-y", "/usr/lib", "libssl",
    ];
    let mut next = rng(seed);
    let mut out = Vec::with_capacity(n + 16);
    while out.len() < n {
        let r = next();
        out.extend_from_slice(WORDS[(r % 16).min(r % 7) as usize].as_bytes());
        out.push(if r >> 60 == 0 { b'\n' } else { b' ' });
    }
    out.truncate(n);
    out
}

/// ustar-shaped input: 512-byte headers with octal fields, file bodies of
/// text or noise, zero padding, and the two zero end blocks.
fn tar_like(files: usize, seed: u64) -> Vec<u8> {
    let mut next = rng(seed);
    let mut out = Vec::new();
    for i in 0..files {
        let r = next();
        let size = (r % 3000) as usize;
        let mut header = [0u8; 512];
        let name = format!("usr/share/doc/pkg{}/file{i}.txt", r % 5);
        header[..name.len()].copy_from_slice(name.as_bytes());
        header[100..108].copy_from_slice(b"0000644\0");
        header[124..136].copy_from_slice(format!("{size:011o}\0").as_bytes());
        header[136..148].copy_from_slice(format!("{:011o}\0", 1_495_000_000 + i).as_bytes());
        header[257..263].copy_from_slice(b"ustar\0");
        out.extend_from_slice(&header);
        let body = if r & 1 == 0 { text(size, r) } else { random_bytes(size, r) };
        out.extend_from_slice(&body);
        out.resize(out.len().next_multiple_of(512), 0);
    }
    out.resize(out.len() + 1024, 0);
    out
}

#[test]
fn every_input_of_up_to_two_bytes() {
    check(b"", "empty");
    for a in 0..=255u8 {
        check(&[a], "one byte");
    }
    for a in (0..=255u8).step_by(17) {
        for b in 0..=255u8 {
            check(&[a, b], "two bytes");
        }
    }
}

#[test]
fn three_and_four_byte_inputs() {
    let mut next = rng(3);
    for _ in 0..2000 {
        let r = next().to_le_bytes();
        // Small alphabets, so repeats (and runs) are common.
        let alphabet = 1 + r[4] % 4;
        let bytes: Vec<u8> = r[..4].iter().map(|&b| b % alphabet).collect();
        check(&bytes[..3], "three bytes");
        check(&bytes, "four bytes");
    }
}

#[test]
fn long_runs() {
    for n in [5, 258, 259, 260, 261, 517, 4096, 100_000, 1 << 20] {
        check(&vec![b'a'; n], &format!("run of {n}"));
    }
    let mut mixed = Vec::new();
    for (i, n) in [3usize, 4, 257, 258, 259, 1000, 3, 70_000].iter().enumerate() {
        mixed.extend(std::iter::repeat_n(i as u8, *n));
    }
    check(&mixed, "runs of mixed lengths");
}

#[test]
fn short_periods() {
    for period in 1..=17usize {
        let data: Vec<u8> = (0..60_000).map(|i| ((i % period) * 31) as u8).collect();
        check(&data, &format!("period {period}"));
    }
}

#[test]
fn text_and_tar_like() {
    check(&text(300_000, 1), "text");
    check(&tar_like(200, 2), "tar-like");
    check(&random_bytes(200_000, 3), "noise");
}

#[test]
fn token_counts_on_block_boundaries() {
    // One token per byte: exactly one and two full blocks (the last-block
    // flag on the last full one, no empty block after it), and one token
    // either side.
    for n in [65_535, 65_536, 65_537, 131_071, 131_072, 131_073] {
        check(&unique_triples(n), &format!("{n} literals"));
    }
    // Two full blocks of tokens ending in matches: 131,068 literals and
    // four matches.
    let mut data = unique_triples(131_068);
    for i in 0..4 {
        data.extend_from_within(i * 1000..i * 1000 + 258);
    }
    check(&data, "two blocks ending in matches");
}

#[test]
fn matches_at_the_window_edge() {
    // The same bytes again at distance 32,767, 32,768 (the farthest a
    // match may reach) and 32,769 (out of the window).
    for gap in [32_767, 32_768, 32_769] {
        let unique = unique_triples(gap);
        let mut data = unique.clone();
        data.extend_from_slice(&unique[..600]);
        check(&data, &format!("repeat at {gap}"));
    }
    // A run whose chains reach exactly one window back.
    let mut data = unique_triples(32_768);
    data.extend_from_within(..);
    data.extend(std::iter::repeat_n(7u8, 40_000));
    check(&data, "a whole window repeated");
}

#[test]
fn match_lengths_three_and_258() {
    // A 3-byte repeat between unique bytes, and runs whose one match is
    // exactly 258 long.
    let mut data = unique_triples(5_000);
    for at in [100usize, 2_000, 4_000] {
        data.extend_from_within(at..at + 3);
        data.extend_from_slice(&[0xA5, 0x5A, 0xC3]);
    }
    data.extend(std::iter::repeat_n(9u8, 259));
    data.push(1);
    data.extend(std::iter::repeat_n(9u8, 258 + 3));
    check(&data, "lengths 3 and 258");
}

/// Frequency vectors with zeros and ties.
fn freq_vec(len: usize, seed: u64) -> Vec<u64> {
    let mut next = rng(seed);
    (0..len)
        .map(|_| match next() % 4 {
            0 => 0,
            1 => 1 + next() % 4,
            2 => 1 << (next() % 20),
            _ => next() % 100_000,
        })
        .collect()
}

#[test]
fn code_lengths_match_the_reference() {
    let mut cases: Vec<(Vec<u64>, u8)> = vec![
        (vec![0; 30], 15),
        (vec![0, 0, 9, 0], 15),
        (vec![5; 286], 15),
        (vec![1; 19], 7),
        ((0..286).map(|i| 1 + i as u64).collect(), 15),
        ((0..286).map(|i| 1u64 << (i % 40)).collect(), 15),
        ((0..30).map(|i| 1u64 << i).collect(), 15),
        ((0..19).map(|i| 1u64 << (2 * i)).collect(), 7),
    ];
    for seed in 0..300 {
        cases.push((freq_vec(286, seed), 15));
        cases.push((freq_vec(30, seed), 15));
        cases.push((freq_vec(19, seed), 7));
    }
    for (freqs, max_len) in cases {
        let want = limited_code_lengths_reference(&freqs, max_len);
        assert_eq!(limited_code_lengths(&freqs, max_len), want, "{freqs:?} at {max_len}");
    }
}

#[test]
fn allocation_stays_within_the_output_bound() {
    // The whole-input encoder's token vector alone was 6 bytes per token:
    // far past the bound on inputs that compress well.
    for (data, what) in [
        (vec![0u8; 8 << 20], "8 MiB of zeros"),
        (text(4 << 20, 9), "4 MiB of text"),
        (random_bytes(2 << 20, 9), "2 MiB of noise"),
    ] {
        let (gz, used) = allocs_during(|| gzip_compress(&data, &CompressOptions::fast()));
        let bound = 4 * gz.len() + (1 << 20);
        assert!(used.bytes <= bound, "{what}: allocated {} bytes, bound {bound}", used.bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_bytes_match_the_reference(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        check(&data, "arbitrary bytes");
    }

    #[test]
    fn small_alphabets_match_the_reference(
        data in proptest::collection::vec(0u8..4, 0..40_000),
        period in 1usize..300,
    ) {
        // Periodic at first, then small-alphabet noise: long and short
        // matches, lazy steps, and chain walks that run out.
        let mut bytes: Vec<u8> = data.iter().take(period).copied().cycle().take(data.len() / 2).collect();
        bytes.extend_from_slice(&data[data.len() / 2..]);
        check(&bytes, "small alphabet");
    }

    #[test]
    fn tar_like_matches_the_reference(files in 0usize..40, seed in any::<u64>()) {
        check(&tar_like(files, seed), "tar-like");
    }

    #[test]
    fn code_lengths_match_the_reference_on_arbitrary_freqs(
        freqs in proptest::collection::vec(0u64..6, 0..286),
    ) {
        prop_assert_eq!(limited_code_lengths(&freqs, 15), limited_code_lengths_reference(&freqs, 15));
    }
}
