//! The text-class scan of `classify` against the branchy per-byte loop it
//! replaced, kept here verbatim as the oracle: same kind on arbitrary
//! bytes, on every byte value alone inside ASCII text, and on samples that
//! straddle the 8 KiB cut.

use dhub_magic::classify;
use dhub_model::FileKind;
use proptest::prelude::*;

/// The text-content classifier as it stood before its scan became
/// branch-free; the `has_high` / `has_control` loop is the original.
fn oracle_text_kind(data: &[u8]) -> FileKind {
    use FileKind::*;
    let sample = &data[..data.len().min(8192)];
    let head = &sample[..sample.len().min(256)];
    if let Ok(s) = std::str::from_utf8(head) {
        let t = s.trim_start();
        let tl = t.get(..t.len().min(64)).unwrap_or(t).to_ascii_lowercase();
        if tl.starts_with("<?xml") || tl.starts_with("<!doctype") || tl.starts_with("<html") || tl.starts_with("<svg") {
            return if tl.starts_with("<svg") { Svg } else { XmlHtml };
        }
        if t.starts_with("\\documentclass") || t.starts_with("\\usepackage") {
            return LatexDoc;
        }
    }

    let mut has_high = false;
    let mut has_control = false;
    for &b in sample {
        if b >= 0x80 {
            has_high = true;
        } else if b < 0x20 && !matches!(b, b'\n' | b'\r' | b'\t' | 0x0c) {
            has_control = true;
        }
    }
    if has_control {
        return OtherBinary;
    }
    if !has_high {
        return AsciiText;
    }
    let utf8_truncation_ok = match std::str::from_utf8(sample) {
        Ok(_) => true,
        Err(e) => e.error_len().is_none() && sample.len() - e.valid_up_to() < 4,
    };
    if utf8_truncation_ok {
        Utf8Text
    } else {
        Iso8859Text
    }
}

/// ASCII over every offset a content signature inspects (0..16), and no
/// shebang: behind it, and under a path with no extension, `classify`
/// always reaches the text scan.
const PREFIX: &[u8] = b"plain text file ";

/// Classifies `PREFIX ++ body` both ways.
fn both(body: &[u8]) -> (FileKind, FileKind) {
    let data = [PREFIX, body].concat();
    // A tar header's "ustar" at 257 is the one signature a body can reach.
    assert!(data.get(257..262) != Some(b"ustar"), "body forges a tar header");
    (classify("notes", &data), oracle_text_kind(&data))
}

/// ASCII text of `len` bytes: words, spaces, newlines and tabs.
fn ascii(len: usize) -> Vec<u8> {
    b"docker layer\tpayload\nusr/lib/os-release ".iter().copied().cycle().take(len).collect()
}

#[test]
fn every_byte_value_alone_in_ascii_text() {
    // Inside the sample near both ends and in the middle, and at and past
    // the 8 KiB cut (the prefix shifts body offsets by 16).
    for at in [0usize, 1, 200, 4000, 8174, 8175, 8176, 8177, 9000] {
        for b in 0..=255u8 {
            let mut body = ascii(9100);
            body[at] = b;
            let (got, want) = both(&body);
            assert_eq!(got, want, "byte {b:#04x} at body offset {at}");
        }
    }
}

#[test]
fn utf8_codepoints_cut_by_the_8k_sample() {
    // A 2-, 3- and 4-byte codepoint ending before, on and after the cut.
    for ch in ["é", "語", "🐳"] {
        for end in 8170..8180usize {
            let mut body = ascii(8300);
            body[end - ch.len()..end].copy_from_slice(ch.as_bytes());
            let (got, want) = both(&body);
            assert_eq!(got, want, "{ch} ending at body offset {end}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes.
    #[test]
    fn arbitrary_bytes(body in proptest::collection::vec(any::<u8>(), 0..10_000)) {
        let (got, want) = both(&body);
        prop_assert_eq!(got, want);
    }

    /// ASCII text with a few arbitrary bytes dropped in anywhere: the mix
    /// that reaches every text class, not just OtherBinary.
    #[test]
    fn ascii_with_stray_bytes(len in 0usize..10_000,
                              strays in proptest::collection::vec((any::<u16>(), any::<u8>()),
                                                                  0..4)) {
        let mut body = ascii(len);
        for (at, b) in strays {
            if !body.is_empty() {
                let i = at as usize % body.len();
                body[i] = b;
            }
        }
        let (got, want) = both(&body);
        prop_assert_eq!(got, want);
    }

    /// Samples straddling the 8 KiB cut, with arbitrary bytes on both
    /// sides of it.
    #[test]
    fn straddling_the_cut(len in 8150usize..8250, at in 8160usize..8190,
                          tail in proptest::collection::vec(any::<u8>(), 1..12)) {
        let mut body = ascii(len.max(at + tail.len()));
        body[at..at + tail.len()].copy_from_slice(&tail);
        let (got, want) = both(&body);
        prop_assert_eq!(got, want);
    }
}
