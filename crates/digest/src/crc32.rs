//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) as used by gzip.
//!
//! The gzip trailer carries a CRC-32 of the uncompressed payload; the
//! from-scratch gzip implementation in `dhub-compress` both emits and checks
//! it through this module. The scalar kernel is slice-by-8: eight
//! compile-time tables let each iteration fold in 8 input bytes with 8
//! independent lookups instead of a serial per-byte chain. On x86-64 with
//! PCLMULQDQ the dispatcher switches to carry-less-multiply folding (four
//! 128-bit accumulators folded 64 bytes per iteration, then Barrett
//! reduction back to 32 bits — the classic Intel white-paper scheme); the
//! slice-by-8 path remains the frozen reference ([`crc32_scalar`]) and
//! handles the sub-64-byte head/tail either way.

use crate::kernel::{CpuFeatures, Crc32Kernel};
use std::sync::OnceLock;

/// `TABLES[0]` is the classic per-byte table; `TABLES[k]` advances a byte
/// `k` positions further through the shift register, so one lookup per
/// table processes 8 bytes at once. All built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Incremental CRC-32 state.
///
/// ```
/// use dhub_digest::Crc32;
/// let mut c = Crc32::new();
/// c.update(b"123456789");
/// assert_eq!(c.finalize(), 0xCBF43926);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    /// Internal state is the ones-complement of the running CRC.
    state: u32,
    /// Selected kernel; sub-64-byte updates use the scalar path regardless.
    kernel: Crc32Kernel,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh CRC state using the dispatched (fastest) kernel.
    pub fn new() -> Self {
        Crc32 { state: 0, kernel: dispatch() }
    }

    /// Creates a fresh CRC state pinned to the slice-by-8 reference kernel.
    pub fn new_scalar() -> Self {
        Crc32 { state: 0, kernel: Crc32Kernel::Scalar }
    }

    /// Creates a state pinned to `kernel`, or `None` when the hardware
    /// can't run it. Availability comes from the raw [`CpuFeatures::probe`]
    /// so explicitly requested kernels stay testable under the scalar
    /// dispatch override.
    pub fn with_kernel(kernel: Crc32Kernel) -> Option<Self> {
        let available = match kernel {
            Crc32Kernel::Scalar => true,
            Crc32Kernel::Pclmul => {
                let f = CpuFeatures::probe();
                f.pclmulqdq && f.sse41
            }
        };
        available.then_some(Crc32 { state: 0, kernel })
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = !self.state;
        #[allow(unused_mut)]
        let mut rest = data;
        #[cfg(target_arch = "x86_64")]
        if self.kernel == Crc32Kernel::Pclmul && rest.len() >= 64 {
            // Safety: the Pclmul kernel is only constructed after probing
            // pclmulqdq+sse4.1.
            let (folded, tail) = unsafe { x86::crc32_clmul(c, rest) };
            c = folded;
            rest = tail;
        }
        self.state = !slice8(c, rest);
    }

    /// Returns the CRC over everything absorbed so far.
    pub fn finalize(self) -> u32 {
        self.state
    }
}

/// Slice-by-8 over `data`, continuing from working (pre-inverted) CRC `c`.
fn slice8(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

fn dispatch() -> Crc32Kernel {
    static SEL: OnceLock<Crc32Kernel> = OnceLock::new();
    *SEL.get_or_init(|| {
        let f = CpuFeatures::effective();
        if f.pclmulqdq && f.sse41 {
            Crc32Kernel::Pclmul
        } else {
            Crc32Kernel::Scalar
        }
    })
}

/// Name of the kernel `Crc32::new()` dispatches to (`scalar`, `pclmul`) —
/// surfaced in metrics and bench records.
pub fn kernel_name() -> &'static str {
    dispatch().name()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! PCLMULQDQ CRC-32 folding, after "Fast CRC Computation for Generic
    //! Polynomials Using PCLMULQDQ" (Gopal et al.). All constants are for
    //! the reflected IEEE polynomial.

    use std::arch::x86_64::*;

    // x^(T mod P) factors for the fold distances used below (reflected).
    const K1: i64 = 0x1_5444_2bd4; // fold by 512 bits (low half)
    const K2: i64 = 0x1_c6e4_1596; // fold by 512 bits (high half)
    const K3: i64 = 0x1_7519_97d0; // fold by 128 bits (low half)
    const K4: i64 = 0x0_ccaa_009e; // fold by 128 bits (high half)
    const K5: i64 = 0x1_63cd_6124; // 96 -> 64 bit reduction
    const POLY: i64 = 0x1_db71_0641; // P(x) (bit-reflected, +1 form)
    const MU: i64 = 0x1_f701_1641; // Barrett constant floor(x^64 / P)

    /// Folds one 128-bit accumulator over the next 16 input bytes.
    #[inline(always)]
    unsafe fn fold16(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Folds `data` (len >= 64) into working CRC `crc`; returns the folded
    /// working CRC and the unconsumed tail (< 16 bytes) for the scalar
    /// kernel to finish.
    ///
    /// # Safety
    /// Requires `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn crc32_clmul(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        debug_assert!(data.len() >= 64);
        let mut ptr = data.as_ptr() as *const __m128i;
        let mut len = data.len();

        // Seed four accumulators from the first 64 bytes, XORing the
        // incoming CRC into the lowest 32 bits of the first lane.
        let mut x3 = _mm_xor_si128(_mm_loadu_si128(ptr), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = _mm_loadu_si128(ptr.add(1));
        let mut x1 = _mm_loadu_si128(ptr.add(2));
        let mut x0 = _mm_loadu_si128(ptr.add(3));
        ptr = ptr.add(4);
        len -= 64;

        // Fold 64 bytes per iteration across the four lanes.
        let k1k2 = _mm_set_epi64x(K2, K1);
        while len >= 64 {
            x3 = fold16(x3, _mm_loadu_si128(ptr), k1k2);
            x2 = fold16(x2, _mm_loadu_si128(ptr.add(1)), k1k2);
            x1 = fold16(x1, _mm_loadu_si128(ptr.add(2)), k1k2);
            x0 = fold16(x0, _mm_loadu_si128(ptr.add(3)), k1k2);
            ptr = ptr.add(4);
            len -= 64;
        }

        // Collapse the four lanes into one, then fold remaining 16s.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(x3, x2, k3k4);
        x = fold16(x, x1, k3k4);
        x = fold16(x, x0, k3k4);
        while len >= 16 {
            x = fold16(x, _mm_loadu_si128(ptr), k3k4);
            ptr = ptr.add(1);
            len -= 16;
        }

        // Reduce 128 -> 64 bits.
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction 64 -> 32 bits.
        let pmu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pmu, 0x10);
        let t2 = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(t1, mask32), pmu, 0x00),
            x,
        );
        let folded = _mm_extract_epi32(t2, 1) as u32;

        (folded, std::slice::from_raw_parts(ptr as *const u8, len))
    }
}

/// One-shot CRC-32 of `data` with the dispatched (fastest) kernel.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// One-shot CRC-32 of `data` pinned to the slice-by-8 reference kernel.
pub fn crc32_scalar(data: &[u8]) -> u32 {
    let mut c = Crc32::new_scalar();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // The standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn empty() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn known_strings() {
        assert_eq!(crc32(b"a"), 0xE8B7BE43);
        assert_eq!(crc32(b"abc"), 0x352441C2);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414FA339);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(17) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32(&data));
    }

    #[test]
    fn resumable_after_finalize_copy() {
        // finalize takes self by value but Crc32 is Copy, so a snapshot works.
        let mut c = Crc32::new();
        c.update(b"1234");
        let mid = c;
        c.update(b"56789");
        assert_eq!(c.finalize(), 0xCBF43926);
        assert_ne!(mid.finalize(), 0xCBF43926);
    }

    #[test]
    fn slice_by_8_matches_bytewise_reference() {
        // Every length 0..64 at every alignment the slice-by-8 kernel can
        // see (leading remainder handled by update-in-chunks above; here we
        // sweep lengths so tails of 0..=7 bytes are all hit).
        let data: Vec<u8> = (0..64u32).map(|i| (i * 131 + 17) as u8).collect();
        for len in 0..=data.len() {
            let mut c = 0xFFFF_FFFFu32;
            for &b in &data[..len] {
                c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
            }
            assert_eq!(crc32_scalar(&data[..len]), !c, "len {len}");
        }
    }

    #[test]
    fn pclmul_matches_scalar() {
        let Some(_) = Crc32::with_kernel(Crc32Kernel::Pclmul) else { return };
        let data: Vec<u8> =
            (0..1_000_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        // Lengths straddling every dispatch boundary: below the 64-byte
        // vector threshold, exactly on it, 16-byte fold residues, odd tails.
        for n in [0usize, 1, 7, 63, 64, 65, 79, 80, 81, 127, 128, 129, 255, 1024, 4097, data.len()]
        {
            let mut c = Crc32::with_kernel(Crc32Kernel::Pclmul).unwrap();
            c.update(&data[..n]);
            assert_eq!(c.finalize(), crc32_scalar(&data[..n]), "len {n}");
        }
        // Incremental feeding with chunk sizes around the threshold.
        for chunk in [48usize, 64, 65, 200, 4096] {
            let mut c = Crc32::with_kernel(Crc32Kernel::Pclmul).unwrap();
            for ch in data.chunks(chunk) {
                c.update(ch);
            }
            assert_eq!(c.finalize(), crc32_scalar(&data), "chunk {chunk}");
        }
    }

    #[test]
    fn kernel_name_is_known() {
        assert!(["scalar", "pclmul"].contains(&kernel_name()));
    }
}
