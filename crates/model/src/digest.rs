//! Content digests in Docker's `sha256:<hex>` notation.

use dhub_digest::sha256::{sha256, to_hex};

/// Each byte's value as a hex digit (either case), or 0xff if it is not one.
const NIBBLE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        table[b"0123456789ABCDEF"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// A sha256 content address. Stored as raw bytes (32) rather than hex (64)
/// — the dedup index holds one per unique file, so size matters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Digests a byte slice.
    pub fn of(data: &[u8]) -> Digest {
        Digest(sha256(data))
    }

    /// Renders as `sha256:<hex>` (the registry wire format).
    pub fn to_docker_string(self) -> String {
        let mut out = String::with_capacity(71);
        self.push_docker_string(&mut out);
        out
    }

    /// Appends `sha256:<hex>` to `out`, allocating nothing of its own.
    pub fn push_docker_string(self, out: &mut String) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut text = *b"sha256:0000000000000000000000000000000000000000000000000000000000000000";
        for (pair, b) in text[7..].chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX[(b >> 4) as usize];
            pair[1] = HEX[(b & 0xf) as usize];
        }
        out.push_str(std::str::from_utf8(&text).expect("hex is ASCII"));
    }

    /// Parses `sha256:` followed by exactly 64 ASCII hex digits (either
    /// case). The input may come straight off the wire, so it is decoded
    /// byte by byte: no `str` slicing that a multi-byte character could
    /// split, and no sign a radix parser would accept.
    pub fn parse(s: &str) -> Option<Digest> {
        let hex = s.strip_prefix("sha256:")?.as_bytes();
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (byte, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
            let (hi, lo) = (NIBBLE[pair[0] as usize], NIBBLE[pair[1] as usize]);
            if (hi | lo) > 0xf {
                return None;
            }
            *byte = hi << 4 | lo;
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
    fn push_appends_the_wire_form() {
        let d = Digest::of(b"layer data");
        let mut out = String::from("x=");
        d.push_docker_string(&mut out);
        assert_eq!(out, format!("x=sha256:{}", to_hex(&d.0)));
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
    fn parse_decodes_bytes_not_str_slices() {
        // 64 bytes, a two-byte character at an odd offset: no `str` slice
        // two bytes wide lands on a boundary there.
        assert!(Digest::parse(&format!("sha256:a\u{e9}{}", "0".repeat(61))).is_none());
        // A sign is not a hex digit, whatever `from_str_radix` makes of "+f".
        assert!(Digest::parse(&format!("sha256:{}", "+f".repeat(32))).is_none());
        for len in [63, 65] {
            assert!(Digest::parse(&format!("sha256:{}", "a".repeat(len))).is_none());
        }
        let d = Digest::of(b"case");
        let upper = format!("sha256:{}", to_hex(&d.0).to_uppercase());
        assert_eq!(Digest::parse(&upper), Some(d));
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
