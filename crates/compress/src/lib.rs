//! From-scratch DEFLATE (RFC 1951) and gzip (RFC 1952).
//!
//! Docker registries store layers as gzip-compressed tarballs, and the
//! paper's compression-ratio analysis (Fig. 4) measures exactly the
//! FLS-to-CLS ratio this codec produces. The implementation is complete and
//! self-contained:
//!
//! * [`bitio`] — LSB-first bit reader/writer used by the format,
//! * [`huffman`] — length-limited (package-merge) canonical Huffman codes
//!   and their decoder,
//! * [`lz77`] — hash-chain match finder over a 32 KiB window with lazy
//!   matching,
//! * [`deflate`]/[`inflate`] — block encoder (stored/fixed/dynamic) and the
//!   corresponding decoder,
//! * [`gzip`] — the gzip member framing with CRC-32 and ISIZE checking.
//!
//! The encoder picks, per block, whichever of stored/fixed/dynamic encodes
//! smallest, so incompressible inputs cost only the stored-block overhead —
//! which matters for the paper's observation that half of all layers are
//! small and barely compressible.

pub mod bitio;
pub mod copy;
pub mod deflate;
pub mod gzip;
pub mod huffman;
pub mod inflate;
pub mod lz77;
mod tables;

pub use copy::kernel_name as inflate_kernel_name;
pub use deflate::{deflate, CompressOptions};
pub use gzip::{
    gzip_compress, gzip_decompress, gzip_decompress_into, gzip_decompress_reference, GzipError,
};
pub use inflate::{inflate, inflate_into, inflate_reference, InflateError};
