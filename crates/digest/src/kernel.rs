//! Runtime CPU-feature detection and kernel selection policy.
//!
//! Every SIMD kernel in the workspace (SHA-256 and CRC-32 here, the inflate
//! match-copy kernel in `dhub-compress`) dispatches through this module: the
//! hardware is probed once with `is_x86_feature_detected!`, the result is
//! cached for the process, and `DHUB_FORCE_SCALAR=1` masks every feature off
//! so CI can run the whole suite pinned to the scalar reference kernels. The
//! scalar implementations are never deleted or bypassed — they *are* the
//! specification, and the chaos/prop gates hold the SIMD kernels to
//! bit-identical output against them.

use std::sync::OnceLock;

/// The subset of x86-64 ISA extensions our kernels care about. All fields are
/// `false` on non-x86_64 targets, so every dispatcher falls back to scalar
/// there without further cfg-gating at the call sites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuFeatures {
    /// SSSE3 (`pshufb` — the byte-swap shuffle the SHA kernels lean on).
    pub ssse3: bool,
    /// SSE4.1 (blend/extract forms used by the SHA-NI packing and the
    /// inflate match-copy kernel).
    pub sse41: bool,
    /// AVX2 (VEX-encoded message-schedule kernel).
    pub avx2: bool,
    /// SHA-NI (`sha256rnds2` and friends — whole-round hardware SHA-256).
    pub sha: bool,
    /// PCLMULQDQ (carry-less multiply for CRC-32 folding).
    pub pclmulqdq: bool,
}

impl CpuFeatures {
    /// Raw hardware probe, ignoring `DHUB_FORCE_SCALAR`. Use this to decide
    /// whether an *explicitly requested* kernel can run at all (e.g. the
    /// equivalence property tests that pit SIMD against scalar in-process).
    pub fn probe() -> CpuFeatures {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                ssse3: std::arch::is_x86_feature_detected!("ssse3"),
                sse41: std::arch::is_x86_feature_detected!("sse4.1"),
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                sha: std::arch::is_x86_feature_detected!("sha"),
                pclmulqdq: std::arch::is_x86_feature_detected!("pclmulqdq"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFeatures::default()
        }
    }

    /// Features the automatic dispatchers honour: the hardware probe with
    /// `DHUB_FORCE_SCALAR=1` masking everything off. Cached per process (the
    /// override is read once; flipping the env var mid-process has no
    /// effect, which keeps every hasher in a run on the same kernel).
    pub fn effective() -> CpuFeatures {
        static EFFECTIVE: OnceLock<CpuFeatures> = OnceLock::new();
        *EFFECTIVE.get_or_init(|| {
            if force_scalar() {
                CpuFeatures::default()
            } else {
                CpuFeatures::probe()
            }
        })
    }
}

/// True when `DHUB_FORCE_SCALAR=1` (or `true`) pins every automatic
/// dispatcher to the scalar reference kernels. The `scripts/ci.sh` dual-run
/// gate exercises both settings so each path stays green on any host.
fn force_scalar() -> bool {
    match std::env::var("DHUB_FORCE_SCALAR") {
        Ok(v) => v == "1" || v.eq_ignore_ascii_case("true"),
        Err(_) => false,
    }
}

/// Which SHA-256 compression kernel is in use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sha256Kernel {
    /// Portable reference implementation (FIPS 180-4 straight from the spec).
    Scalar,
    /// SIMD message schedule (4 lanes of W at a time), scalar rounds.
    Avx2,
    /// Hardware SHA extensions: `sha256msg1/msg2` schedule, `sha256rnds2`
    /// rounds.
    ShaNi,
}

impl Sha256Kernel {
    /// Stable lowercase name used in metrics and bench records.
    pub fn name(self) -> &'static str {
        match self {
            Sha256Kernel::Scalar => "scalar",
            Sha256Kernel::Avx2 => "avx2",
            Sha256Kernel::ShaNi => "sha_ni",
        }
    }
}

/// Which CRC-32 kernel is in use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crc32Kernel {
    /// Slice-by-8 table kernel (the reference).
    Scalar,
    /// PCLMULQDQ fold-by-4 with Barrett reduction; scalar tail.
    Pclmul,
}

impl Crc32Kernel {
    /// Stable lowercase name used in metrics and bench records.
    pub fn name(self) -> &'static str {
        match self {
            Crc32Kernel::Scalar => "scalar",
            Crc32Kernel::Pclmul => "pclmul",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_is_cached_and_consistent() {
        assert_eq!(CpuFeatures::effective(), CpuFeatures::effective());
    }

    #[test]
    fn force_scalar_masks_everything() {
        // Can't set env vars per-test safely, but the invariant we rely on
        // is structural: effective() under force_scalar is all-false.
        if force_scalar() {
            assert_eq!(CpuFeatures::effective(), CpuFeatures::default());
        }
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Sha256Kernel::Scalar.name(), "scalar");
        assert_eq!(Sha256Kernel::Avx2.name(), "avx2");
        assert_eq!(Sha256Kernel::ShaNi.name(), "sha_ni");
        assert_eq!(Crc32Kernel::Scalar.name(), "scalar");
        assert_eq!(Crc32Kernel::Pclmul.name(), "pclmul");
    }
}
