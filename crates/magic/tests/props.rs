//! Property tests: the classifier is total and stable.

use dhub_magic::classify;
use dhub_model::FileKind;
use proptest::prelude::*;

proptest! {
    /// classify() never panics, whatever the bytes or the path.
    #[test]
    fn never_panics(path in "[ -~]{0,60}", data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = classify(&path, &data);
    }

    /// Deterministic: same inputs, same kind.
    #[test]
    fn deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(classify("f", &data), classify("f", &data));
    }

    /// Empty data is always Empty regardless of name.
    #[test]
    fn empty_is_empty(path in "[ -~]{0,40}") {
        prop_assert_eq!(classify(&path, b""), FileKind::Empty);
    }

    /// Pure printable-ASCII content never classifies as a binary kind.
    #[test]
    fn ascii_prose_is_textual(words in proptest::collection::vec("[a-z]{1,10}", 1..40)) {
        let text = words.join(" ") + "\n";
        let kind = classify("notes", text.as_bytes());
        // Shebang-less prose without markup lands in the document branch.
        prop_assert_eq!(kind.group(), dhub_model::TypeGroup::Documents);
    }
}
