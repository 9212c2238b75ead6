//! gzip member framing (RFC 1952).
//!
//! Docker registries transfer layers as gzip-compressed tarballs; this
//! module wraps the raw DEFLATE codec in the gzip container: a 10-byte
//! header, the compressed stream, then CRC-32 and ISIZE trailers which the
//! decoder verifies.

use crate::bitio::BitWriter;
use crate::deflate::{deflate_into, CompressOptions};
use crate::inflate::{inflate_into, InflateError};
use dhub_digest::crc32;

/// gzip magic bytes.
const MAGIC: [u8; 2] = [0x1f, 0x8b];
/// Compression method 8 = DEFLATE.
const CM_DEFLATE: u8 = 8;
/// OS byte 255 = unknown.
const OS_UNKNOWN: u8 = 255;

/// Errors raised on malformed gzip members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GzipError {
    /// Input shorter than the fixed header + trailer.
    Truncated,
    /// Magic bytes or compression method wrong.
    BadHeader,
    /// An optional header field (FEXTRA/FNAME/FCOMMENT/FHCRC) is malformed.
    BadOptionalField,
    /// The embedded DEFLATE stream is invalid.
    Deflate(InflateError),
    /// CRC-32 trailer mismatch: the trailer claimed `want`, the payload
    /// hashed to `got`.
    BadCrc { want: u32, got: u32 },
    /// ISIZE trailer mismatch: the trailer claimed `want` bytes, the payload
    /// decompressed to `got`.
    BadLength { want: u32, got: u32 },
}

impl std::fmt::Display for GzipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GzipError::Truncated => f.write_str("truncated gzip member"),
            GzipError::BadHeader => f.write_str("bad gzip header"),
            GzipError::BadOptionalField => f.write_str("malformed optional gzip header field"),
            GzipError::Deflate(e) => write!(f, "deflate error: {e}"),
            GzipError::BadCrc { want, got } => {
                write!(f, "gzip crc mismatch (trailer 0x{want:08x}, payload 0x{got:08x})")
            }
            GzipError::BadLength { want, got } => {
                write!(f, "gzip isize mismatch (trailer {want}, payload {got})")
            }
        }
    }
}

impl std::error::Error for GzipError {}

/// Compresses `data` into a single gzip member. The header goes first into
/// the buffer the DEFLATE stream is written to, so the body is never
/// copied.
pub fn gzip_compress(data: &[u8], opts: &CompressOptions) -> Vec<u8> {
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.push(CM_DEFLATE);
    header.push(0); // FLG: no optional fields
    header.extend_from_slice(&[0, 0, 0, 0]); // MTIME = 0 for reproducible bytes
    header.push(0); // XFL
    header.push(OS_UNKNOWN);
    let mut out = deflate_into(data, opts, BitWriter::with_bytes(header));
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    // Registries keep blobs for the life of the hub: give back the slack.
    out.shrink_to_fit();
    out
}

/// Parses the header, returning `(body, want_crc, want_len)`.
fn gzip_frame(data: &[u8]) -> Result<(&[u8], u32, u32), GzipError> {
    if data.len() < 18 {
        return Err(GzipError::Truncated);
    }
    if data[0..2] != MAGIC || data[2] != CM_DEFLATE {
        return Err(GzipError::BadHeader);
    }
    let flg = data[3];
    if flg & 0xE0 != 0 {
        // Reserved flag bits must be zero.
        return Err(GzipError::BadHeader);
    }
    let mut pos = 10usize;
    if flg & 0x04 != 0 {
        // FEXTRA
        if pos + 2 > data.len() {
            return Err(GzipError::BadOptionalField);
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    for flag in [0x08u8, 0x10] {
        // FNAME, FCOMMENT: zero-terminated strings.
        if flg & flag != 0 {
            // An FEXTRA length may already have run `pos` past the end.
            let rest = data.get(pos..).ok_or(GzipError::BadOptionalField)?;
            pos += rest.iter().position(|&b| b == 0).ok_or(GzipError::BadOptionalField)? + 1;
        }
    }
    if flg & 0x02 != 0 {
        // FHCRC
        pos += 2;
    }
    if pos + 8 > data.len() {
        return Err(GzipError::BadOptionalField);
    }
    let body = &data[pos..data.len() - 8];
    let want_crc = u32::from_le_bytes(data[data.len() - 8..data.len() - 4].try_into().unwrap());
    let want_len = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
    Ok((body, want_crc, want_len))
}

/// Output pre-size from the ISIZE footer. The footer is advisory until the
/// CRC check passes, so an implausible value (smaller than half the
/// compressed body, or past the 1032:1 DEFLATE expansion bound) falls back
/// to the old 3× heuristic / the bound — a corrupt footer must not drive a
/// multi-gigabyte reserve.
fn isize_hint(body_len: usize, want_len: u32) -> usize {
    let hint = want_len as usize;
    if hint < body_len / 2 {
        body_len.saturating_mul(3)
    } else {
        hint.min(body_len.saturating_mul(1032).max(4096))
    }
}

/// Decompresses a single gzip member, verifying CRC-32 and ISIZE.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>, GzipError> {
    let mut out = Vec::new();
    gzip_decompress_into(data, &mut out)?;
    Ok(out)
}

/// Decompresses into `out` (cleared first, capacity kept), pre-sizing from
/// the trailer ISIZE. The reusable-buffer form the fused analysis path
/// feeds from its per-worker scratch arena.
pub fn gzip_decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), GzipError> {
    let (body, want_crc, want_len) = gzip_frame(data)?;
    inflate_into(body, out, Some(isize_hint(body.len(), want_len)))
        .map_err(GzipError::Deflate)?;
    let got_crc = crc32(out);
    if got_crc != want_crc {
        return Err(GzipError::BadCrc { want: want_crc, got: got_crc });
    }
    if out.len() as u32 != want_len {
        return Err(GzipError::BadLength { want: want_len, got: out.len() as u32 });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = b"FROM ubuntu:14.04\nRUN apt-get update\n".repeat(50);
        let gz = gzip_compress(&data, &CompressOptions::default());
        assert_eq!(gzip_decompress(&gz).unwrap(), data);
    }

    #[test]
    fn empty_payload() {
        let gz = gzip_compress(b"", &CompressOptions::default());
        assert_eq!(gzip_decompress(&gz).unwrap(), b"");
    }

    #[test]
    fn header_bytes() {
        let gz = gzip_compress(b"x", &CompressOptions::default());
        assert_eq!(&gz[0..2], &[0x1f, 0x8b]);
        assert_eq!(gz[2], 8);
    }

    #[test]
    fn deterministic_output() {
        // MTIME pinned to zero: identical input → identical bytes, which the
        // registry relies on for stable layer digests.
        let a = gzip_compress(b"layer content", &CompressOptions::default());
        let b = gzip_compress(b"layer content", &CompressOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut gz = gzip_compress(b"data", &CompressOptions::default());
        gz[0] = 0;
        assert_eq!(gzip_decompress(&gz).unwrap_err(), GzipError::BadHeader);
    }

    #[test]
    fn rejects_corrupt_crc() {
        let payload = b"data data data";
        let mut gz = gzip_compress(payload, &CompressOptions::default());
        let n = gz.len();
        gz[n - 5] ^= 0xff;
        // The error must carry both sides of the mismatch: the (corrupted)
        // trailer value and the CRC of the actual payload.
        let err = gzip_decompress(&gz).unwrap_err();
        let good = crc32(payload);
        assert_eq!(err, GzipError::BadCrc { want: good ^ 0xff00_0000, got: good });
        assert!(err.to_string().contains("crc mismatch"), "{err}");
    }

    #[test]
    fn rejects_corrupt_isize() {
        let payload = b"data data data";
        let mut gz = gzip_compress(payload, &CompressOptions::default());
        let n = gz.len();
        gz[n - 1] ^= 0xff;
        // A corrupt ISIZE also feeds the decoder a bogus pre-size hint; the
        // plausibility clamp must keep that from mattering.
        let want = payload.len() as u32 | 0xff00_0000;
        let err = gzip_decompress(&gz).unwrap_err();
        assert_eq!(err, GzipError::BadLength { want, got: payload.len() as u32 });
    }

    #[test]
    fn isize_hint_plausibility() {
        // Exact footer: trusted.
        assert_eq!(isize_hint(1000, 2500), 2500);
        // Footer implausibly small (corrupt): 3× heuristic.
        assert_eq!(isize_hint(1000, 3), 3000);
        // Footer implausibly large (corrupt): clamped to the DEFLATE
        // expansion bound, never a runaway reserve.
        assert_eq!(isize_hint(1000, u32::MAX), 1_032_000);
    }

    #[test]
    fn rejects_extra_field_past_end() {
        // FEXTRA claims 64 KiB of a 32-byte member, then FNAME follows: an
        // error, not a slice past the end.
        let mut gz = vec![0x1f, 0x8b, 8, 0x04 | 0x08, 0, 0, 0, 0, 0, 255, 0xff, 0xff];
        gz.extend_from_slice(&[1; 20]);
        assert_eq!(gzip_decompress(&gz).unwrap_err(), GzipError::BadOptionalField);
    }

    #[test]
    fn rejects_truncation() {
        let gz = gzip_compress(b"data", &CompressOptions::default());
        assert_eq!(gzip_decompress(&gz[..10]).unwrap_err(), GzipError::Truncated);
    }

    #[test]
    fn tolerates_fname_field() {
        // Build a member with FNAME set, as real docker layers sometimes have.
        let mut gz = gzip_compress(b"payload", &CompressOptions::default());
        let body: Vec<u8> = gz.split_off(10);
        gz[3] |= 0x08;
        gz.extend_from_slice(b"layer.tar\0");
        gz.extend_from_slice(&body);
        assert_eq!(gzip_decompress(&gz).unwrap(), b"payload");
    }
}
