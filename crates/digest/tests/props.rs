//! Property tests for the hashing primitives.

use dhub_digest::{crc32, sha256, Crc32, Crc32Kernel, Sha256, Sha256Kernel};
use proptest::prelude::*;

/// One-shot SHA-256 on the scalar reference kernel.
fn scalar_sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::with_kernel(Sha256Kernel::Scalar).unwrap();
    h.update(data);
    h.finalize()
}

/// One-shot CRC-32 on the slice-by-8 reference kernel.
fn scalar_crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::with_kernel(Crc32Kernel::Scalar).unwrap();
    c.update(data);
    c.finalize()
}

/// Deterministic pseudo-random fill for the fixed-length equivalence cases.
fn fill(len: usize, seed: u32) -> Vec<u8> {
    (0..len).map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 13) as u8).collect()
}

/// Every SIMD kernel the host offers must digest bit-identically to the
/// scalar reference at the boundary lengths where schedule/fold logic
/// changes shape: empty, 1 byte, the 55/56 padding split, the 63/64/65
/// block edge, the CRC fold threshold, unaligned offsets, and multi-MiB.
#[test]
fn kernels_match_scalar_at_boundaries() {
    let lens = [0usize, 1, 55, 56, 57, 63, 64, 65, 79, 80, 81, 127, 128, 129, 4096, 3 << 20];
    let data = fill(*lens.iter().max().unwrap() + 7, 0x5EED);
    for &len in &lens {
        for off in [0usize, 1, 7] {
            let slice = &data[off..off + len];
            for k in [Sha256Kernel::ShaNi, Sha256Kernel::Avx2] {
                if let Some(mut h) = Sha256::with_kernel(k) {
                    h.update(slice);
                    assert_eq!(h.finalize(), scalar_sha256(slice), "sha {k:?} len={len} off={off}");
                }
            }
            if let Some(mut c) = Crc32::with_kernel(Crc32Kernel::Pclmul) {
                c.update(slice);
                assert_eq!(c.finalize(), scalar_crc32(slice), "crc len={len} off={off}");
            }
        }
    }
}

proptest! {
    /// Dispatched SHA-256 (whatever kernel the host selects) equals the
    /// scalar reference on arbitrary input.
    #[test]
    fn sha256_dispatch_matches_scalar(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        prop_assert_eq!(sha256(&data), scalar_sha256(&data));
    }

    /// Same for CRC-32, crossing the pclmul fold threshold both ways.
    #[test]
    fn crc32_dispatch_matches_scalar(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        prop_assert_eq!(crc32(&data), scalar_crc32(&data));
    }

    /// Explicitly requested SIMD kernels equal scalar under arbitrary
    /// chunked feeding (exercises buffered-tail handoff at every offset).
    #[test]
    fn simd_kernels_chunked_match_scalar(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                         cut in 0usize..4096) {
        let cut = cut % (data.len() + 1);
        for k in [Sha256Kernel::ShaNi, Sha256Kernel::Avx2] {
            if let Some(mut h) = Sha256::with_kernel(k) {
                h.update(&data[..cut]);
                h.update(&data[cut..]);
                prop_assert_eq!(h.finalize(), scalar_sha256(&data));
            }
        }
        if let Some(mut c) = Crc32::with_kernel(Crc32Kernel::Pclmul) {
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            prop_assert_eq!(c.finalize(), scalar_crc32(&data));
        }
    }

    /// Incremental hashing over arbitrary chunkings equals one-shot hashing.
    #[test]
    fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                 cuts in proptest::collection::vec(0usize..4096, 0..8)) {
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        bounds.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for b in bounds {
            h.update(&data[prev..b]);
            prev = b;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// CRC over arbitrary split equals one-shot CRC.
    #[test]
    fn crc32_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                cut in 0usize..4096) {
        let cut = cut % (data.len() + 1);
        let mut c = Crc32::new();
        c.update(&data[..cut]);
        c.update(&data[cut..]);
        prop_assert_eq!(c.finalize(), crc32(&data));
    }

    /// Different inputs yield different SHA-256 digests (collision would be
    /// astronomically unlikely; a hit means the implementation is broken).
    #[test]
    fn sha256_injective_in_practice(a in proptest::collection::vec(any::<u8>(), 0..256),
                                    b in proptest::collection::vec(any::<u8>(), 0..256)) {
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }
}
