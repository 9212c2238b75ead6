//! Equivalence properties for the packed-table inflate fast path.
//!
//! The fast path is what every layer in the study flows through, and its
//! golden model — the original bit-by-bit decoder, the test oracle
//! `dhub_oracle::inflate_reference` — must agree with it on every stream,
//! valid or garbage: the same bytes, or the same error variant. Replayable
//! via `PROPTEST_SEED` like every other property suite in the workspace.

use dhub_compress::{
    deflate, gzip_compress, gzip_decompress, inflate, inflate_into, CompressOptions,
};
use dhub_oracle::{gzip_decompress_reference, inflate_reference};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast inflate round-trips our own deflate output on arbitrary bytes.
    #[test]
    fn fast_roundtrips_deflate(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let c = deflate(&data, &CompressOptions::default());
        let fast = inflate(&c).unwrap();
        prop_assert_eq!(&fast, &data);
        prop_assert_eq!(inflate_reference(&c).unwrap(), fast);
    }

    /// Repetitive input: long overlapping matches hit the chunked
    /// `extend_from_within` copy at every distance class.
    #[test]
    fn fast_roundtrips_repetitive(byte in any::<u8>(), n in 0usize..50_000, period in 1usize..64) {
        let data: Vec<u8> = (0..n).map(|i| byte.wrapping_add((i % period) as u8)).collect();
        let c = deflate(&data, &CompressOptions::default());
        let fast = inflate(&c).unwrap();
        prop_assert_eq!(&fast, &data);
        prop_assert_eq!(inflate_reference(&c).unwrap(), fast);
    }

    /// `inflate_into` with a wrong-but-plausible size hint changes only
    /// allocation behavior, never bytes.
    #[test]
    fn size_hint_is_advisory(data in proptest::collection::vec(any::<u8>(), 0..8_000), hint in 0usize..65_536) {
        let c = deflate(&data, &CompressOptions::fast());
        let mut out = Vec::new();
        inflate_into(&c, &mut out, Some(hint)).unwrap();
        prop_assert_eq!(out, data);
    }

    /// On arbitrary garbage the fast path and the reference agree: both
    /// accept with identical bytes or both reject with the same error.
    #[test]
    fn fast_matches_reference_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..2_000)) {
        prop_assert_eq!(inflate(&data), inflate_reference(&data));
    }

    /// Same agreement at the gzip framing layer (ISIZE pre-size, CRC check).
    #[test]
    fn gzip_fast_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..8_000)) {
        let gz = gzip_compress(&data, &CompressOptions::fast());
        let fast = gzip_decompress(&gz).unwrap();
        prop_assert_eq!(&fast, &data);
        prop_assert_eq!(gzip_decompress_reference(&gz).unwrap(), fast);
    }

    /// Corrupting one byte anywhere in a member never panics either path,
    /// and they agree: a flipped bit that still decodes must decode to the
    /// same bytes, and one that does not must fail with the same error.
    #[test]
    fn corrupted_member_agreement(data in proptest::collection::vec(any::<u8>(), 1..4_000), at in any::<u16>(), mask in any::<u8>()) {
        let mut gz = gzip_compress(&data, &CompressOptions::fast());
        let i = at as usize % gz.len();
        gz[i] ^= mask | 1;
        prop_assert_eq!(gzip_decompress(&gz), gzip_decompress_reference(&gz));
    }

    /// The same on members of 64 KiB and more of low-entropy text, corrupted
    /// in one byte or truncated anywhere: long blocks keep the fast loop
    /// running, so errors land inside it and at its hand-off to the checked
    /// loop, not only in a short stream's tail.
    #[test]
    fn large_member_corruption_agreement(words in proptest::collection::vec(0usize..12, 1..4_000),
                                         len in 65_536usize..100_000, at in any::<u32>(),
                                         mask in any::<u8>(), truncate in any::<bool>()) {
        const VOCAB: [&str; 12] = ["usr/", "lib/", "share/", "doc/", "bin/", "etc/", "python3.8/",
                                   "site-packages/", ".so", ".py", "\n", "\0\0\0\0"];
        let data: Vec<u8> =
            words.iter().cycle().flat_map(|&w| VOCAB[w].bytes()).take(len).collect();
        let mut gz = gzip_compress(&data, &CompressOptions::fast());
        let i = at as usize % gz.len();
        if truncate {
            gz.truncate(i);
        } else {
            gz[i] ^= mask | 1;
        }
        prop_assert_eq!(gzip_decompress(&gz), gzip_decompress_reference(&gz));
    }
}
