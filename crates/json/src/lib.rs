//! Minimal JSON support for Docker image manifests.
//!
//! Docker stores image manifests as JSON documents; the registry substrate
//! serializes and parses them through this crate. It is a small, complete
//! implementation of RFC 8259 with one tokenizer and one escaper:
//!
//! * [`Reader`] — a pull reader over `&str`, the one tokenizer;
//! * [`parse`] — the [`Json`] value model built over that reader;
//! * [`push_string`] / [`push_u64`] — the escaper and number writer, which
//!   the `Json` printer (`to_string` via `Display`) also writes through. It
//!   emits object keys in insertion order so manifest bytes (and therefore
//!   their sha256 digests) are stable.

mod parse;
mod read;
mod value;
mod write;

pub use parse::parse;
pub use read::{Kind, ParseError, Reader};
pub use value::Json;
pub use write::{push_string, push_u64};
