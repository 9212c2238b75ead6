//! Match-copy kernels for the inflate hot loop.
//!
//! LZ77 back-reference copies are the second hot spot of inflation (after
//! Huffman decode): every match appends `len` bytes sourced `d` back from
//! the end of the output, and overlapping sources (`d < len`) are the
//! common case in layer tarballs full of repeated path prefixes and zero
//! runs. Both kernels work on a raw write cursor and copy whole chunks —
//! 16 bytes (one XMM load and store on x86_64) or 8 — overshooting the
//! match end by up to `COPY_SLACK` bytes into capacity the caller has
//! reserved instead of branching on the tail. Dispatch follows
//! [`CpuFeatures::effective`]: the 16-byte kernel runs where SSE4.1 is
//! reported, and `DHUB_FORCE_SCALAR=1` pins inflation to the 8-byte one
//! process-wide.

use dhub_digest::CpuFeatures;
use std::sync::OnceLock;

/// Bytes a match copy may write past the end of the match.
pub(crate) const COPY_SLACK: usize = 32;

/// True when the dispatched copy kernel is the 16-byte one.
pub(crate) fn wide_enabled() -> bool {
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
    if wide_enabled() {
        "sse41"
    } else {
        "scalar"
    }
}

/// Chunk width of the dispatched 16-byte kernel.
pub(crate) const WIDE: usize = 16;
/// Chunk width of the 8-byte kernel.
pub(crate) const NARROW: usize = 8;

/// Writes the `len`-byte match that starts `d` bytes before `dst` at
/// `dst`, `C` bytes per load and store. Loads only ever read bytes below
/// the write frontier, so nothing uninitialized is read; stores may run up
/// to `COPY_SLACK` bytes past `dst + len`.
///
/// # Safety
/// The `d` bytes before `dst` are initialized bytes of the same
/// allocation (`d >= 1`), that allocation has room for `len + COPY_SLACK`
/// bytes from `dst` on, and `C <= COPY_SLACK`.
#[inline(always)]
pub(crate) unsafe fn copy_match_raw<const C: usize>(dst: *mut u8, d: usize, len: usize) {
    debug_assert!(d >= 1 && C <= COPY_SLACK);
    // SAFETY: every read is of `[dst - d, frontier)`, initialized by the
    // caller or by an earlier store of this call; every write is below
    // `dst + max(COPY_SLACK, len + C - 1)`, inside the room the caller
    // reserved.
    unsafe {
        let end = dst.add(len);
        let chunk = |from: *const u8, to: *mut u8| {
            to.cast::<[u8; C]>().write_unaligned(from.cast::<[u8; C]>().read_unaligned())
        };
        let (mut src, mut out) = if d >= C {
            // Most matches are short and far: the first 32 bytes go out
            // unconditionally, so they take no loop branch at all.
            let src = dst.sub(d) as *const u8;
            for k in 0..COPY_SLACK / C {
                chunk(src.add(k * C), dst.add(k * C));
            }
            if len <= COPY_SLACK {
                return;
            }
            (src.add(COPY_SLACK), dst.add(COPY_SLACK))
        } else if d == 1 {
            // A run of one byte: splat it.
            let v = [*dst.sub(1); C];
            let mut out = dst;
            while out < end {
                out.cast::<[u8; C]>().write_unaligned(v);
                out = out.add(C);
            }
            return;
        } else {
            // Period shorter than a chunk: extend byte by byte until the
            // copy can read from a whole number of periods `w >= C` back,
            // where a chunk load sees only bytes already written.
            let mut w = d;
            while w < C {
                w += d;
            }
            let head = (w - d).min(len);
            for i in 0..head {
                *dst.add(i) = *dst.add(i).sub(d);
            }
            // `out - src == w` whenever the chunk loop below runs.
            (dst.sub(d) as *const u8, dst.add(head))
        };
        while out < end {
            chunk(src, out);
            src = src.add(C);
            out = out.add(C);
        }
    }
}

/// Appends `len` bytes starting `d` back from the end of `out` through
/// the dispatched kernel. Panics unless `1 <= d <= out.len()`.
#[inline]
pub(crate) fn copy_match(out: &mut Vec<u8>, d: usize, len: usize) {
    copy_match_vec(wide_enabled(), out, d, len);
}

fn copy_match_vec(wide: bool, out: &mut Vec<u8>, d: usize, len: usize) {
    assert!(d >= 1 && d <= out.len(), "match distance {d} outside {} bytes of output", out.len());
    out.reserve(len + COPY_SLACK);
    // SAFETY: the `d` bytes before the end of `out` are initialized (checked
    // above), and `reserve` made room for `len + COPY_SLACK` more; the
    // kernel writes the `len` bytes `set_len` then exposes.
    unsafe {
        let dst = out.as_mut_ptr().add(out.len());
        if wide {
            copy_match_raw::<WIDE>(dst, d, len)
        } else {
            copy_match_raw::<NARROW>(dst, d, len)
        }
        out.set_len(out.len() + len);
    }
}

/// The 8-byte kernel on a `Vec`: what inflate runs under
/// `DHUB_FORCE_SCALAR=1` and off x86. Panics unless `1 <= d <= out.len()`.
pub fn copy_match_scalar(out: &mut Vec<u8>, d: usize, len: usize) {
    copy_match_vec(false, out, d, len);
}

/// The 16-byte kernel on a `Vec`, whatever dispatch selected, so the
/// equivalence suites exercise it even under `DHUB_FORCE_SCALAR=1`.
/// Panics unless `1 <= d <= out.len()`.
pub fn copy_match_sse41(out: &mut Vec<u8>, d: usize, len: usize) {
    copy_match_vec(true, out, d, len);
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
                copy_match_sse41(&mut a, d, len);
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
            copy_match_sse41(&mut a, d, len);
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
