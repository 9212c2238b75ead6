//! From-scratch hashing primitives used across the Docker Hub study.
//!
//! Docker content-addresses every blob (layer tarballs, manifests) with
//! SHA-256, gzip frames carry a CRC-32, and the deduplication analysis needs
//! a fast non-cryptographic hash for its in-memory multimaps. All three live
//! here with no external dependencies:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (incremental and one-shot),
//! * [`crc32`] — the IEEE 802.3 CRC-32 used by gzip,
//! * [`fxhash`] — an FxHash-style mixer plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases for hot hash tables, per the Rust perf-book guidance.
//!
//! SHA-256 and CRC-32 dispatch at runtime to SIMD kernels where the CPU
//! supports them (see [`kernel`]): SHA-NI or an AVX2 message schedule for
//! SHA-256, PCLMULQDQ folding for CRC-32. The scalar implementations are the
//! frozen references (`Sha256Kernel::Scalar`, `Crc32Kernel::Scalar`);
//! dispatch can be pinned to them process-wide with `DHUB_FORCE_SCALAR=1`.

pub mod crc32;
pub mod fxhash;
pub mod kernel;
pub mod sha256;

pub use crc32::{crc32, Crc32};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use kernel::{CpuFeatures, Crc32Kernel, Sha256Kernel};
pub use sha256::{sha256, Sha256};

/// `(sha256, crc32)` kernel names currently dispatched (e.g.
/// `("sha_ni", "pclmul")`) — the observability layer surfaces these.
pub fn kernel_names() -> (&'static str, &'static str) {
    (sha256::kernel_name(), crc32::kernel_name())
}
