//! Property and interoperability tests for the DEFLATE/gzip codec.

use dhub_compress::{
    deflate, gzip_compress, gzip_decompress, gzip_decompress_reference, inflate, CompressOptions,
};
use proptest::prelude::*;

/// The SSE4.1 match-copy kernel must be byte-identical to the scalar copy
/// at the shape boundaries: overlap distances around the 16-byte vector
/// width, len 0/1, the window-doubling phase, and multi-MiB runs.
#[test]
fn copy_match_kernel_matches_scalar_at_boundaries() {
    use dhub_compress::copy::{copy_match_scalar, copy_match_sse41};
    let mut cases = vec![(1usize, 3 << 20), (3, 70_000), (16, 65_536), (17, 12_345)];
    for d in [1usize, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 255, 258, 4096] {
        for len in [0usize, 1, 15, 16, 17, 257, 258, 259, 5000] {
            cases.push((d, len));
        }
    }
    for (d, len) in cases {
        let prefix: Vec<u8> = (0..d.max(1) + 8).map(|i| (i * 37) as u8).collect();
        let mut scalar = prefix.clone();
        copy_match_scalar(&mut scalar, d, len);
        let mut simd = prefix;
        if copy_match_sse41(&mut simd, d, len) {
            assert_eq!(simd, scalar, "d={d} len={len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SIMD copy kernel equals the scalar copy on arbitrary overlap shapes.
    #[test]
    fn copy_match_kernel_matches_scalar(prefix in proptest::collection::vec(any::<u8>(), 1..600),
                                        d in 1usize..600, len in 0usize..4000) {
        use dhub_compress::copy::{copy_match_scalar, copy_match_sse41};
        let d = 1 + d % prefix.len();
        let mut scalar = prefix.clone();
        copy_match_scalar(&mut scalar, d, len);
        let mut simd = prefix;
        if copy_match_sse41(&mut simd, d, len) {
            prop_assert_eq!(simd, scalar);
        }
    }

    /// The production inflate (SIMD copy + batched literals + dispatched
    /// CRC) agrees with the frozen scalar reference decoder on arbitrary
    /// compressed streams.
    #[test]
    fn inflate_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let gz = gzip_compress(&data, &CompressOptions::default());
        prop_assert_eq!(gzip_decompress(&gz).unwrap(), gzip_decompress_reference(&gz).unwrap());
    }

    /// inflate(deflate(x)) == x for arbitrary bytes.
    #[test]
    fn deflate_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let c = deflate(&data, &CompressOptions::default());
        prop_assert_eq!(inflate(&c).unwrap(), data);
    }

    /// Same for highly repetitive input (exercises long matches and RLE).
    #[test]
    fn deflate_roundtrip_repetitive(byte in any::<u8>(), n in 0usize..50_000, period in 1usize..64) {
        let data: Vec<u8> = (0..n).map(|i| byte.wrapping_add((i % period) as u8)).collect();
        let c = deflate(&data, &CompressOptions::default());
        prop_assert_eq!(inflate(&c).unwrap(), data);
    }

    /// gzip framing roundtrip with integrity checks intact.
    #[test]
    fn gzip_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..10_000)) {
        let gz = gzip_compress(&data, &CompressOptions::fast());
        prop_assert_eq!(gzip_decompress(&gz).unwrap(), data);
    }

    /// The decoder never panics on arbitrary garbage.
    #[test]
    fn inflate_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2_000)) {
        let _ = inflate(&data);
        let _ = gzip_decompress(&data);
    }
}

/// Interop: our gzip output must be readable by an independent
/// implementation (python zlib) and vice versa. Skipped when python3 is not
/// on PATH so the suite stays hermetic.
#[test]
fn interop_with_system_zlib() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let probe = Command::new("python3").arg("-c").arg("import zlib").status();
    if !probe.map(|s| s.success()).unwrap_or(false) {
        eprintln!("python3/zlib unavailable; skipping interop test");
        return;
    }
    let payload: Vec<u8> = b"etc/apt/sources.list usr/lib/libc.so.6 var/lib/dpkg/status "
        .repeat(300);

    // Ours -> theirs.
    let gz = gzip_compress(&payload, &CompressOptions::default());
    let mut child = Command::new("python3")
        .args(["-c", "import sys,gzip; sys.stdout.buffer.write(gzip.decompress(sys.stdin.buffer.read()))"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&gz).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(out.stdout, payload, "python could not read our gzip output");

    // Theirs -> ours.
    let mut child = Command::new("python3")
        .args(["-c", "import sys,gzip; sys.stdout.buffer.write(gzip.compress(sys.stdin.buffer.read(), 6))"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&payload).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(gzip_decompress(&out.stdout).unwrap(), payload, "we could not read python gzip output");
}
