//! Test oracles: the pre-fusion implementations the fused analysis path is
//! checked against, plus the allocation counter the hostile-input
//! properties bound memory with.
//!
//! The study makes one inflate → untar → hash pass per layer (§III-C of
//! the paper). These are that pass's slow twins, kept only so tests can
//! compare against them:
//!
//! * [`inflate_reference`] / [`gzip_decompress_reference`] — the original
//!   bit-by-bit DEFLATE decoder and its gzip framing;
//! * [`deflate_reference`] / [`gzip_compress_reference`] — the whole-input
//!   encoder the streaming block encoder replaced, with its package-merge
//!   [`limited_code_lengths_reference`];
//! * [`analyze_layer_reference`] — the allocate-per-layer analyzer (owned
//!   buffer, owned tar entries, per-entry ancestor walk);
//! * [`ReferenceStore::ingest_layer_reference`] — analyze-then-ingest into
//!   a store with its own maps and its own commit arithmetic;
//! * [`json_reference`] — the recursive-descent JSON parser, and
//!   [`recipe_json_reference`] — the layer recipe writer over the `Json`
//!   tree.
//!
//! They never dispatch: SHA-256 and CRC-32 run on the scalar kernels, so an
//! equality against them proves the SIMD production path bit-identical.
//! They share no code with the paths they check beyond the bit reader, the
//! canonical Huffman codes and decoder, the encoder's option structs, the
//! tar walk (`TarView`, through
//! `read_archive`), the `Json` value model and its printer, and the error
//! types.
//!
//! This crate is a dev-dependency only. It links the library builds of
//! `dhub-compress`, `dhub-analyzer`, `dhub-dedupstore` and `dhub-json`, so
//! comparisons against it run from integration tests (`crates/*/tests/`,
//! `tests/chaos.rs`), never from a crate's own unit tests.

pub mod alloc;
mod analyze;
mod deflate;
mod inflate;
mod json;
mod store;

pub use analyze::analyze_layer_reference;
pub use deflate::{deflate_reference, gzip_compress_reference, limited_code_lengths_reference};
pub use inflate::{fixed_block, gzip_decompress_reference, inflate_reference, Sym};
pub use json::{json_reference, recipe_json_reference};
pub use store::{RefKind, RefRow, ReferenceStore};

use dhub_digest::{Sha256, Sha256Kernel};
use dhub_model::Digest;

/// SHA-256 of `data` on the scalar kernel, whatever the CPU offers.
fn scalar_digest(data: &[u8]) -> Digest {
    let mut h = Sha256::with_kernel(Sha256Kernel::Scalar).expect("the scalar kernel always runs");
    h.update(data);
    Digest(h.finalize())
}
