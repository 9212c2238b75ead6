//! The decoder's unit cases checked against the bit-by-bit oracle: every
//! stream the fast path decodes, the oracle decodes to the same bytes, and
//! every stream it rejects, the oracle rejects with the same error.

use dhub_compress::{
    deflate, gzip_compress, gzip_decompress, gzip_decompress_into, inflate, CompressOptions,
    GzipError, InflateError,
};
use dhub_oracle::{fixed_block, gzip_decompress_reference, inflate_reference, Sym};

#[test]
fn zlib_repeated_text_stream() {
    // zlib level 6 raw deflate of 20 copies of the fox sentence: matches
    // at distance 45 run well past it, overlapping their own output.
    let raw: Vec<u8> = {
        let hex = "2bc94855282ccd4cce56482aca2fcf5348cbaf50c82acd2d2856c82f4b2d5228014ae72456552aa4e4a7eb8179a38a47158f2aa6aa6200";
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    };
    let expect: Vec<u8> = b"the quick brown fox jumps over the lazy dog. ".repeat(20);
    assert_eq!(inflate_reference(&raw).unwrap(), expect);
    assert_eq!(inflate(&raw).unwrap(), expect);
}

#[test]
fn truncated_stream() {
    for stream in [&[][..], &[0x4b]] {
        assert_eq!(inflate_reference(stream).unwrap_err(), InflateError::Truncated);
        assert_eq!(inflate(stream), inflate_reference(stream));
    }
}

#[test]
fn last_symbol_straddles_fast_margin() {
    // Literal runs of every length up to 160 (8- and 9-bit codes), then a
    // match with extra bits as the last symbol: the fast loop hands over to
    // the checked one at every bit offset around the 16-byte input margin,
    // mid-literal and mid-match.
    for n in 1..160usize {
        let mut syms: Vec<Sym> = (0..n).map(|i| Sym::Lit((i * 151 % 256) as u8)).collect();
        syms.push(Sym::Match(3 + (n * 5 % 256) as u16, 1 + (n * 7 % n) as u16));
        let stream = fixed_block(&syms);
        let want = inflate_reference(&stream).unwrap();
        assert_eq!(inflate(&stream).unwrap(), want, "n={n}");
        for cut in 1..stream.len().min(24) {
            let short = &stream[..stream.len() - cut];
            assert_eq!(inflate(short), inflate_reference(short), "n={n} cut={cut}");
        }
    }
}

#[test]
fn distance_too_far_inside_fast_loop() {
    // Five literals, a match reaching 100 back, then enough input that the
    // fast loop is still running when it decodes the match (the fast loop
    // itself is pinned by the unit test of the same name).
    let mut syms: Vec<Sym> = b"layer".iter().map(|&b| Sym::Lit(b)).collect();
    syms.push(Sym::Match(10, 100));
    syms.extend(std::iter::repeat_n(Sym::Lit(b'x'), 64));
    let stream = fixed_block(&syms);
    assert_eq!(inflate_reference(&stream).unwrap_err(), InflateError::DistanceTooFar);
    assert_eq!(inflate(&stream), inflate_reference(&stream));
}

#[test]
fn fast_matches_reference_on_deflate_output() {
    let mut data = Vec::new();
    for i in 0..50_000u32 {
        data.push((i % 251) as u8);
        if i % 7 == 0 {
            data.extend_from_slice(b"docker layer payload ");
        }
    }
    let stream = deflate(&data, &CompressOptions::default());
    let fast = inflate(&stream).unwrap();
    let slow = inflate_reference(&stream).unwrap();
    assert_eq!(fast, slow);
    assert_eq!(fast, data);
}

#[test]
fn rejects_corrupt_crc() {
    let mut gz = gzip_compress(b"data data data", &CompressOptions::default());
    let n = gz.len();
    gz[n - 5] ^= 0xff;
    let err = gzip_decompress(&gz).unwrap_err();
    assert!(matches!(err, GzipError::BadCrc { .. }), "{err}");
    assert_eq!(gzip_decompress_reference(&gz).unwrap_err(), err);
}

#[test]
fn rejects_corrupt_isize() {
    let mut gz = gzip_compress(b"data data data", &CompressOptions::default());
    let n = gz.len();
    gz[n - 1] ^= 0xff;
    let err = gzip_decompress(&gz).unwrap_err();
    assert!(matches!(err, GzipError::BadLength { .. }), "{err}");
    assert_eq!(gzip_decompress_reference(&gz).unwrap_err(), err);
}

#[test]
fn into_matches_owned_and_reference() {
    let data = b"FROM ubuntu\nADD . /srv\n".repeat(200);
    let gz = gzip_compress(&data, &CompressOptions::default());
    let mut buf = Vec::new();
    gzip_decompress_into(&gz, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert_eq!(gzip_decompress(&gz).unwrap(), data);
    assert_eq!(gzip_decompress_reference(&gz).unwrap(), data);
}
