//! Match-copy kernels for the inflate hot loop.
//!
//! LZ77 back-reference copies are the second hot spot of inflation (after
//! Huffman decode): every match appends `len` bytes sourced `d` back from
//! the end of the output, and overlapping sources (`d < len`) are the
//! common case in layer tarballs full of repeated path prefixes and zero
//! runs. The scalar kernel ([`copy_match_scalar`]) doubles the source
//! window with `extend_from_within` memcpys; the SSE4.1 kernel streams
//! 16-byte unaligned chunks through XMM registers once the window is at
//! least 16 bytes wide, overshooting into reserved capacity instead of
//! branching on the tail. Dispatch follows [`CpuFeatures::effective`], so
//! `DHUB_FORCE_SCALAR=1` pins inflation to the scalar kernel process-wide.

use dhub_digest::CpuFeatures;
use std::sync::OnceLock;

/// True when the dispatched copy kernel is SSE4.1.
fn simd_enabled() -> bool {
    static SEL: OnceLock<bool> = OnceLock::new();
    *SEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures::effective().sse41
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Name of the match-copy kernel inflate dispatches to (`scalar`, `sse41`)
/// — surfaced in metrics and bench records.
pub fn kernel_name() -> &'static str {
    if simd_enabled() {
        "sse41"
    } else {
        "scalar"
    }
}

/// Appends `len` bytes starting `d` back from the end of `out`, using the
/// dispatched kernel. Caller guarantees `1 <= d <= out.len()`.
#[inline]
pub(crate) fn copy_match(out: &mut Vec<u8>, d: usize, len: usize) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // Safety: dispatch only selects SSE4.1 after probing for it.
        unsafe { x86::copy_match_sse41(out, d, len) };
        return;
    }
    copy_match_scalar(out, d, len);
}

/// Scalar reference kernel. Handles the overlapping case (`d < len`)
/// without a per-byte loop: each `extend_from_within` doubles the available
/// source window, so the copy finishes in O(log(len/d)) memcpys.
#[inline]
pub fn copy_match_scalar(out: &mut Vec<u8>, d: usize, len: usize) {
    let start = out.len() - d;
    if d >= len {
        out.extend_from_within(start..start + len);
    } else if d == 1 {
        let b = out[out.len() - 1];
        out.resize(out.len() + len, b);
    } else {
        let mut remaining = len;
        while remaining > 0 {
            let chunk = (out.len() - start).min(remaining);
            out.extend_from_within(start..start + chunk);
            remaining -= chunk;
        }
    }
}

/// Runs the SSE4.1 kernel if the hardware supports it (ignoring the scalar
/// dispatch override), returning `false` when it can't run. Exists for the
/// equivalence property suite, which pits it against
/// [`copy_match_scalar`] on the same prefix in one process.
pub fn copy_match_sse41(out: &mut Vec<u8>, d: usize, len: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if CpuFeatures::probe().sse41 {
            unsafe { x86::copy_match_sse41(out, d, len) };
            return true;
        }
    }
    let _ = (out, d, len);
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// SSE4.1 match copy.
    ///
    /// # Safety
    /// Requires SSE4.1 and `1 <= d <= out.len()`.
    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn copy_match_sse41(out: &mut Vec<u8>, d: usize, len: usize) {
        debug_assert!(d >= 1 && d <= out.len());
        if d == 1 {
            // Run of one byte: memset beats any copy loop.
            let b = out[out.len() - 1];
            out.resize(out.len() + len, b);
            return;
        }
        let start = out.len() - d;
        out.reserve(len + 16);
        // Narrow windows first: double the source window with memcpys until
        // 16-byte chunks can't read ahead of what's been written.
        let mut written = 0usize;
        let mut window = d;
        while window < 16 && written < len {
            let chunk = window.min(len - written);
            out.extend_from_within(start..start + chunk);
            written += chunk;
            window += chunk;
        }
        if written == len {
            return;
        }
        // 16-byte chunked copy. Invariant: dst - src == window >= 16, so
        // every load reads bytes below the write frontier (all initialized);
        // the final store may overshoot `total` by up to 15 bytes into the
        // capacity reserved above, which `set_len` then excludes.
        let base = out.as_mut_ptr();
        let mut src = start;
        let mut dst = out.len();
        let total = dst + (len - written);
        while dst < total {
            let v = _mm_loadu_si128(base.add(src) as *const __m128i);
            _mm_storeu_si128(base.add(dst) as *mut __m128i, v);
            src += 16;
            dst += 16;
        }
        out.set_len(total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(137) % 251) as u8).collect()
    }

    fn reference(out: &mut Vec<u8>, d: usize, len: usize) {
        let start = out.len() - d;
        for i in 0..len {
            let b = out[start + i];
            out.push(b);
        }
    }

    #[test]
    fn scalar_matches_bytewise_reference() {
        for d in 1..40 {
            for len in 0..80 {
                let mut a = seed(40);
                let mut b = a.clone();
                copy_match_scalar(&mut a, d, len);
                reference(&mut b, d, len);
                assert_eq!(a, b, "d={d} len={len}");
            }
        }
    }

    #[test]
    fn sse41_matches_scalar_exhaustive_small() {
        for d in 1..40 {
            for len in 0..100 {
                let mut a = seed(40);
                let mut b = a.clone();
                if !copy_match_sse41(&mut a, d, len) {
                    return;
                }
                copy_match_scalar(&mut b, d, len);
                assert_eq!(a, b, "d={d} len={len}");
            }
        }
    }

    #[test]
    fn sse41_matches_scalar_large() {
        for (d, len) in [(3, 70_000), (16, 65_536), (17, 12_345), (255, 258), (4096, 100_000)] {
            let mut a = seed(5000);
            let mut b = a.clone();
            if !copy_match_sse41(&mut a, d, len) {
                return;
            }
            copy_match_scalar(&mut b, d, len);
            assert_eq!(a, b, "d={d} len={len}");
        }
    }

    #[test]
    fn dispatched_copy_is_correct() {
        let mut a = seed(100);
        let mut b = a.clone();
        copy_match(&mut a, 7, 500);
        reference(&mut b, 7, 500);
        assert_eq!(a, b);
    }
}
