//! SHA-256 per FIPS 180-4, tuned for the layer-analysis hot path.
//!
//! Implemented directly from the specification: 512-bit blocks, 64-round
//! compression over eight 32-bit words of state. The scalar round loop is
//! macro-unrolled with rotated register naming (no per-round state
//! shuffle), full blocks compress straight from the input slice without
//! staging through the 64-byte buffer, and `finalize` writes the padding
//! blocks directly instead of feeding padding through `update` a byte at a
//! time. The implementation is incremental ([`Sha256::update`]) so large
//! layer tarballs can be hashed while streaming, and one-shot helpers
//! ([`sha256`], [`sha256_hex`]) cover the common case of digesting an
//! in-memory blob.
//!
//! On x86-64 the block compressor dispatches at runtime (see
//! [`crate::kernel`]) to a SHA-NI kernel (`sha256rnds2`/`sha256msg1`/
//! `sha256msg2` — the whole round function in hardware) or an AVX2 kernel
//! that vectorizes the message schedule four words at a time and reuses the
//! scalar rounds. The scalar path is the frozen reference:
//! `Sha256::with_kernel(Sha256Kernel::Scalar)` always runs it, and the
//! property suite pins every SIMD kernel to bit-identical digests against
//! it.

use crate::kernel::{CpuFeatures, Sha256Kernel};
use std::sync::OnceLock;

/// Per-round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A block-compression kernel: absorbs `data` (length a multiple of 64)
/// into the state. Dispatch happens once per hasher, not per block.
type Blocks = fn(&mut [u32; 8], &[u8]);

/// Incremental SHA-256 hasher.
///
/// ```
/// use dhub_digest::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     dhub_digest::sha256::to_hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (used for the length suffix in padding).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
    /// Selected block compressor (scalar reference or a SIMD kernel).
    blocks: Blocks,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state, using the best kernel the CPU
    /// supports (scalar under `DHUB_FORCE_SCALAR=1` or on non-x86-64).
    pub fn new() -> Self {
        Self::with_blocks(dispatch().0)
    }

    /// Creates a hasher pinned to `kernel`, or `None` if the hardware lacks
    /// the required ISA extension. Availability is decided by the raw
    /// [`CpuFeatures::probe`] so explicitly requested kernels stay testable
    /// even when dispatch is pinned scalar via the env override.
    pub fn with_kernel(kernel: Sha256Kernel) -> Option<Self> {
        kernel_blocks(kernel).map(Self::with_blocks)
    }

    fn with_blocks(blocks: Blocks) -> Self {
        Sha256 { state: H0, len: 0, buf: [0; 64], buf_len: 0, blocks }
    }

    /// Absorbs `data` into the hash state. Whole blocks compress straight
    /// from `data`; only a trailing partial block is staged in `buf`.
    pub fn update(&mut self, data: &[u8]) {
        let blocks = self.blocks;
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            } else {
                // Input fit entirely into the partial buffer; the chunk
                // loop below must not clobber buf_len.
                return;
            }
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            blocks(&mut self.state, &rest[..whole]);
        }
        let rem = &rest[whole..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let blocks = self.blocks;
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit
        // length — written directly into the final one or two blocks.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        if n < 56 {
            self.buf[n + 1..56].fill(0);
            self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
            blocks(&mut self.state, &self.buf);
        } else {
            self.buf[n + 1..64].fill(0);
            blocks(&mut self.state, &self.buf);
            let mut last = [0u8; 64];
            last[56..64].copy_from_slice(&bit_len.to_be_bytes());
            blocks(&mut self.state, &last);
        }
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// Maps a kernel id to its block fn, or `None` when the CPU can't run it.
fn kernel_blocks(kernel: Sha256Kernel) -> Option<Blocks> {
    match kernel {
        Sha256Kernel::Scalar => Some(compress_blocks_scalar as Blocks),
        #[cfg(target_arch = "x86_64")]
        Sha256Kernel::ShaNi => {
            let f = CpuFeatures::probe();
            (f.sha && f.sse41 && f.ssse3).then_some(x86::compress_blocks_shani as Blocks)
        }
        #[cfg(target_arch = "x86_64")]
        Sha256Kernel::Avx2 => {
            let f = CpuFeatures::probe();
            (f.avx2 && f.sse41 && f.ssse3).then_some(x86::compress_blocks_avx2 as Blocks)
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => None,
    }
}

/// Picks the fastest kernel the effective feature set allows.
fn select() -> (Blocks, Sha256Kernel) {
    #[cfg(target_arch = "x86_64")]
    {
        let f = CpuFeatures::effective();
        if f.sha && f.sse41 && f.ssse3 {
            return (x86::compress_blocks_shani, Sha256Kernel::ShaNi);
        }
        if f.avx2 && f.sse41 && f.ssse3 {
            return (x86::compress_blocks_avx2, Sha256Kernel::Avx2);
        }
    }
    (compress_blocks_scalar, Sha256Kernel::Scalar)
}

fn dispatch() -> (Blocks, Sha256Kernel) {
    static SEL: OnceLock<(Blocks, Sha256Kernel)> = OnceLock::new();
    *SEL.get_or_init(select)
}

/// Name of the kernel `Sha256::new()` dispatches to (`scalar`, `avx2`,
/// `sha_ni`) — surfaced in metrics and bench records.
pub fn kernel_name() -> &'static str {
    dispatch().1.name()
}

/// One round: `t1`/`t2` from the working registers, writing `d` and `h` in
/// place. Callers rotate the argument order instead of shuffling eight
/// registers per round, which is what lets the 64 rounds unroll flat.
macro_rules! round {
    ($a:ident,$b:ident,$c:ident,$d:ident,$e:ident,$f:ident,$g:ident,$h:ident, $k:expr, $w:expr) => {{
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($k)
            .wrapping_add($w);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    }};
}

/// Expands a 512-bit block into the 64-word message schedule (FIPS 180-4
/// §6.2.2 step 1). The scalar half of the split the AVX2 kernel exploits:
/// it swaps this for a vectorized expansion and reuses [`rounds`].
fn schedule(block: &[u8; 64]) -> [u32; 64] {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    w
}

/// Runs the 64 compression rounds over a prepared schedule and folds the
/// working variables back into `state`.
fn rounds(state: &mut [u32; 8], w: &[u32; 64]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    let mut i = 0;
    while i < 64 {
        round!(a, b, c, d, e, f, g, h, K[i], w[i]);
        round!(h, a, b, c, d, e, f, g, K[i + 1], w[i + 1]);
        round!(g, h, a, b, c, d, e, f, K[i + 2], w[i + 2]);
        round!(f, g, h, a, b, c, d, e, K[i + 3], w[i + 3]);
        round!(e, f, g, h, a, b, c, d, K[i + 4], w[i + 4]);
        round!(d, e, f, g, h, a, b, c, K[i + 5], w[i + 5]);
        round!(c, d, e, f, g, h, a, b, K[i + 6], w[i + 6]);
        round!(b, c, d, e, f, g, h, a, K[i + 7], w[i + 7]);
        i += 8;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Compresses one 512-bit block into `state` with the scalar kernel. A free
/// function (not a method) so `update` can compress `self.buf` without a
/// borrow-splitting copy of the block.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    rounds(state, &schedule(block));
}

/// Scalar reference block compressor: every whole block in `data`.
fn compress_blocks_scalar(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    for block in data.chunks_exact(64) {
        compress(state, block.try_into().unwrap());
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86-64 SIMD block compressors. Both kernels are holders of `unsafe`
    //! only for ISA availability: the safe wrappers are handed out solely by
    //! the dispatch/`with_kernel` paths, which verify the feature bits first.

    use super::{rounds, K};
    use std::arch::x86_64::*;

    /// SHA-NI block compressor (requires `sha`, `sse4.1`, `ssse3` — checked
    /// by the caller before this fn pointer is ever handed out).
    pub(super) fn compress_blocks_shani(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        unsafe { shani_blocks(state, data) }
    }

    /// AVX2 block compressor: SIMD message schedule + scalar rounds
    /// (requires `avx2`, `sse4.1`, `ssse3` — checked by the caller).
    pub(super) fn compress_blocks_avx2(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        unsafe { avx2_blocks(state, data) }
    }

    /// Four schedule-and-round steps using the hardware SHA instructions.
    /// `$cur` carries W[i..i+4]; `$next`/`$prev` are the neighbouring
    /// schedule vectors being built up (the classic Intel rotation).
    macro_rules! sched4 {
        ($state0:ident, $state1:ident, $cur:ident, $next:ident, $prev:ident, $i:expr) => {{
            let msg = _mm_add_epi32($cur, _mm_loadu_si128(K.as_ptr().add($i) as *const __m128i));
            $state1 = _mm_sha256rnds2_epu32($state1, $state0, msg);
            let tmp = _mm_alignr_epi8($cur, $prev, 4);
            $next = _mm_add_epi32($next, tmp);
            $next = _mm_sha256msg2_epu32($next, $cur);
            let msg = _mm_shuffle_epi32(msg, 0x0E);
            $state0 = _mm_sha256rnds2_epu32($state0, $state1, msg);
            $prev = _mm_sha256msg1_epu32($prev, $cur);
        }};
    }

    /// Like [`sched4!`] but without the `sha256msg1` step — used for the
    /// last schedule-producing groups where no further W words are needed.
    macro_rules! sched4_tail {
        ($state0:ident, $state1:ident, $cur:ident, $next:ident, $prev:ident, $i:expr) => {{
            let msg = _mm_add_epi32($cur, _mm_loadu_si128(K.as_ptr().add($i) as *const __m128i));
            $state1 = _mm_sha256rnds2_epu32($state1, $state0, msg);
            let tmp = _mm_alignr_epi8($cur, $prev, 4);
            $next = _mm_add_epi32($next, tmp);
            $next = _mm_sha256msg2_epu32($next, $cur);
            let msg = _mm_shuffle_epi32(msg, 0x0E);
            $state0 = _mm_sha256rnds2_epu32($state0, $state1, msg);
        }};
    }

    #[target_feature(enable = "sha,sse4.1,ssse3")]
    unsafe fn shani_blocks(state: &mut [u32; 8], data: &[u8]) {
        // Big-endian word loads via pshufb.
        let shuf_mask =
            _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203u64 as i64);

        // Pack the state into the ABEF/CDGH layout sha256rnds2 expects.
        let tmp = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr() as *const __m128i), 0xB1);
        let mut state1 =
            _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().add(4) as *const __m128i), 0x1B);
        let mut state0 = _mm_alignr_epi8(tmp, state1, 8);
        state1 = _mm_blend_epi16(state1, tmp, 0xF0);

        for block in data.chunks_exact(64) {
            let p = block.as_ptr();
            let abef_save = state0;
            let cdgh_save = state1;

            // Rounds 0-3.
            let mut m0 =
                _mm_shuffle_epi8(_mm_loadu_si128(p as *const __m128i), shuf_mask);
            let mut msg =
                _mm_add_epi32(m0, _mm_loadu_si128(K.as_ptr() as *const __m128i));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

            // Rounds 4-7.
            let mut m1 =
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(16) as *const __m128i), shuf_mask);
            let mut msg =
                _mm_add_epi32(m1, _mm_loadu_si128(K.as_ptr().add(4) as *const __m128i));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            m0 = _mm_sha256msg1_epu32(m0, m1);

            // Rounds 8-11.
            let mut m2 =
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(32) as *const __m128i), shuf_mask);
            let mut msg =
                _mm_add_epi32(m2, _mm_loadu_si128(K.as_ptr().add(8) as *const __m128i));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            m1 = _mm_sha256msg1_epu32(m1, m2);

            // Rounds 12-15: the first sha256msg2 completion.
            let mut m3 =
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(48) as *const __m128i), shuf_mask);
            let mut msg =
                _mm_add_epi32(m3, _mm_loadu_si128(K.as_ptr().add(12) as *const __m128i));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            let tmp = _mm_alignr_epi8(m3, m2, 4);
            m0 = _mm_add_epi32(m0, tmp);
            m0 = _mm_sha256msg2_epu32(m0, m3);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            m2 = _mm_sha256msg1_epu32(m2, m3);

            // Rounds 16-47: full schedule rotation.
            sched4!(state0, state1, m0, m1, m3, 16);
            sched4!(state0, state1, m1, m2, m0, 20);
            sched4!(state0, state1, m2, m3, m1, 24);
            sched4!(state0, state1, m3, m0, m2, 28);
            sched4!(state0, state1, m0, m1, m3, 32);
            sched4!(state0, state1, m1, m2, m0, 36);
            sched4!(state0, state1, m2, m3, m1, 40);
            sched4!(state0, state1, m3, m0, m2, 44);
            // Rounds 48-51 still need msg1: W[60..64] (finished at rounds
            // 56-59) depends on sha256msg1(m3, m0) from this group.
            sched4!(state0, state1, m0, m1, m3, 48);

            // Rounds 52-59: schedule completing, no further msg1 needed.
            sched4_tail!(state0, state1, m1, m2, m0, 52);
            sched4_tail!(state0, state1, m2, m3, m1, 56);

            // Rounds 60-63.
            let mut msg =
                _mm_add_epi32(m3, _mm_loadu_si128(K.as_ptr().add(60) as *const __m128i));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

            state0 = _mm_add_epi32(state0, abef_save);
            state1 = _mm_add_epi32(state1, cdgh_save);
        }

        // Unpack ABEF/CDGH back to the linear state layout.
        let tmp = _mm_shuffle_epi32(state0, 0x1B);
        state1 = _mm_shuffle_epi32(state1, 0xB1);
        state0 = _mm_blend_epi16(tmp, state1, 0xF0);
        state1 = _mm_alignr_epi8(state1, tmp, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, state0);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, state1);
    }

    /// σ0 over four lanes: rotr7 ^ rotr18 ^ shr3.
    #[inline(always)]
    unsafe fn sigma0(x: __m128i) -> __m128i {
        let r7 = _mm_or_si128(_mm_srli_epi32(x, 7), _mm_slli_epi32(x, 25));
        let r18 = _mm_or_si128(_mm_srli_epi32(x, 18), _mm_slli_epi32(x, 14));
        _mm_xor_si128(_mm_xor_si128(r7, r18), _mm_srli_epi32(x, 3))
    }

    /// σ1 over four lanes: rotr17 ^ rotr19 ^ shr10.
    #[inline(always)]
    unsafe fn sigma1(x: __m128i) -> __m128i {
        let r17 = _mm_or_si128(_mm_srli_epi32(x, 17), _mm_slli_epi32(x, 15));
        let r19 = _mm_or_si128(_mm_srli_epi32(x, 19), _mm_slli_epi32(x, 13));
        _mm_xor_si128(_mm_xor_si128(r17, r19), _mm_srli_epi32(x, 10))
    }

    /// Vectorized message schedule: W[i..i+4] per iteration. The σ1 feedback
    /// (W[i+2] depends on W[i]) is handled in two half-vector phases.
    #[target_feature(enable = "avx2,sse4.1,ssse3")]
    unsafe fn schedule_avx2(block: *const u8, w: &mut [u32; 64]) {
        let shuf_mask =
            _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203u64 as i64);
        let mut v0 = _mm_shuffle_epi8(_mm_loadu_si128(block as *const __m128i), shuf_mask);
        let mut v1 = _mm_shuffle_epi8(_mm_loadu_si128(block.add(16) as *const __m128i), shuf_mask);
        let mut v2 = _mm_shuffle_epi8(_mm_loadu_si128(block.add(32) as *const __m128i), shuf_mask);
        let mut v3 = _mm_shuffle_epi8(_mm_loadu_si128(block.add(48) as *const __m128i), shuf_mask);
        _mm_storeu_si128(w.as_mut_ptr() as *mut __m128i, v0);
        _mm_storeu_si128(w.as_mut_ptr().add(4) as *mut __m128i, v1);
        _mm_storeu_si128(w.as_mut_ptr().add(8) as *mut __m128i, v2);
        _mm_storeu_si128(w.as_mut_ptr().add(12) as *mut __m128i, v3);
        let mut i = 16;
        while i < 64 {
            // W[i-15..i-11] and W[i-7..i-3] straddle vector boundaries.
            let w15 = _mm_alignr_epi8(v1, v0, 4);
            let w7 = _mm_alignr_epi8(v3, v2, 4);
            let mut t = _mm_add_epi32(_mm_add_epi32(v0, w7), sigma0(w15));
            // Phase 1: lanes 0,1 use W[i-2], W[i-1] (v3 lanes 2,3).
            let s1a = sigma1(_mm_shuffle_epi32(v3, 0xEE));
            t = _mm_add_epi32(t, _mm_move_epi64(s1a));
            // Phase 2: lanes 2,3 use the just-computed W[i], W[i+1].
            let s1b = sigma1(_mm_shuffle_epi32(t, 0x44));
            let v4 = _mm_add_epi32(t, _mm_slli_si128(s1b, 8));
            _mm_storeu_si128(w.as_mut_ptr().add(i) as *mut __m128i, v4);
            v0 = v1;
            v1 = v2;
            v2 = v3;
            v3 = v4;
            i += 4;
        }
    }

    #[target_feature(enable = "avx2,sse4.1,ssse3")]
    unsafe fn avx2_blocks(state: &mut [u32; 8], data: &[u8]) {
        let mut w = [0u32; 64];
        for block in data.chunks_exact(64) {
            schedule_avx2(block.as_ptr(), &mut w);
            rounds(state, &w);
        }
    }
}

/// One-shot SHA-256 of `data` with the dispatched (fastest) kernel.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Lowercase hex encoding of a byte slice.
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sha256_hex(data: &[u8]) -> String {
        to_hex(&sha256(data))
    }

    fn scalar_sha256(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(Sha256Kernel::Scalar).unwrap();
        h.update(data);
        h.finalize()
    }

    // NIST / FIPS 180-4 reference vectors.
    #[test]
    fn empty_input() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exact_block_boundary() {
        // 64-byte input exercises the padding path where a whole extra block
        // is required.
        let data = [0u8; 64];
        assert_eq!(
            sha256_hex(&data),
            "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"
        );
    }

    #[test]
    fn length_55_56_57_padding_edges() {
        // 55 bytes: padding fits in one block; 56/57: spills into a second.
        for (n, want) in [
            (55usize, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
            (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
            (57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"),
        ] {
            assert_eq!(sha256_hex(&vec![b'a'; n]), want, "length {n}");
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        // Feed in awkward chunk sizes.
        for chunk in [1usize, 3, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn hex_encoding() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(to_hex(&[]), "");
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha256::new();
        h.update(b"abc");
        let h2 = h.clone();
        assert_eq!(h.finalize(), h2.finalize());
    }

    #[test]
    fn scalar_matches_dispatched() {
        let data: Vec<u8> = (0..300_000u32).map(|i| (i * 31 % 257) as u8).collect();
        for n in [0, 1, 55, 56, 63, 64, 65, 127, 128, 4096, data.len()] {
            assert_eq!(sha256(&data[..n]), scalar_sha256(&data[..n]), "len {n}");
        }
    }

    #[test]
    fn every_available_kernel_matches_scalar() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 7 % 253) as u8).collect();
        for kernel in [Sha256Kernel::ShaNi, Sha256Kernel::Avx2] {
            let Some(_) = Sha256::with_kernel(kernel) else { continue };
            for n in [0usize, 1, 55, 56, 57, 63, 64, 65, 100, 191, 192, 193, 8192, data.len()] {
                let mut h = Sha256::with_kernel(kernel).unwrap();
                h.update(&data[..n]);
                assert_eq!(
                    h.finalize(),
                    scalar_sha256(&data[..n]),
                    "{} len {n}",
                    kernel.name()
                );
            }
            // Incremental feeding across block boundaries too.
            let mut h = Sha256::with_kernel(kernel).unwrap();
            for c in data.chunks(97) {
                h.update(c);
            }
            assert_eq!(h.finalize(), scalar_sha256(&data), "{} incremental", kernel.name());
        }
    }

    #[test]
    fn kernel_name_is_known() {
        assert!(["scalar", "avx2", "sha_ni"].contains(&kernel_name()));
    }
}
