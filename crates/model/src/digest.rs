//! Content digests in Docker's `sha256:<hex>` notation.

use dhub_digest::sha256::{sha256, sha256_scalar, to_hex};

/// A sha256 content address. Stored as raw bytes (32) rather than hex (64)
/// — the dedup index holds one per unique file, so size matters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Digests a byte slice.
    pub fn of(data: &[u8]) -> Digest {
        Digest(sha256(data))
    }

    /// Digests a byte slice with the scalar SHA-256 reference kernel. The
    /// frozen reference paths (analyzer/dedupstore golden models) hash
    /// through this so equivalence gates compare SIMD production runs
    /// against true scalar output.
    pub fn of_scalar(data: &[u8]) -> Digest {
        Digest(sha256_scalar(data))
    }

    /// Renders as `sha256:<hex>` (the registry wire format).
    pub fn to_docker_string(self) -> String {
        format!("sha256:{}", to_hex(&self.0))
    }

    /// Parses `sha256:<64 hex>`.
    pub fn parse(s: &str) -> Option<Digest> {
        let hex = s.strip_prefix("sha256:")?;
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&hex[i * 2..i * 2 + 2], 16).ok()?;
        }
        Some(Digest(out))
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sha256:{}…", to_hex(&self.0[..4]))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_docker_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_digest() {
        let d = Digest::of(b"");
        assert_eq!(
            d.to_docker_string(),
            "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn parse_roundtrip() {
        let d = Digest::of(b"layer data");
        let s = d.to_docker_string();
        assert_eq!(Digest::parse(&s), Some(d));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Digest::parse("md5:abcd").is_none());
        assert!(Digest::parse("sha256:zz").is_none());
        assert!(Digest::parse("sha256:").is_none());
        let short = "sha256:e3b0c44298fc";
        assert!(Digest::parse(short).is_none());
        let bad_char = format!("sha256:{}", "g".repeat(64));
        assert!(Digest::parse(&bad_char).is_none());
    }

    #[test]
    fn equality_and_ordering() {
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        assert_ne!(a, b);
        assert_eq!(a, Digest::of(b"a"));
        assert_eq!(a.cmp(&b), a.0.cmp(&b.0));
    }
}
