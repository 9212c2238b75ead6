//! Property tests for the shared data model.

use dhub_model::{Digest, LayerRef, Manifest, RepoName};
use proptest::prelude::*;

fn arb_manifest() -> impl Strategy<Value = Manifest> {
    proptest::collection::vec((any::<[u8; 8]>(), 0u64..1 << 40), 0..32).prop_map(|layers| {
        Manifest::new(
            layers
                .into_iter()
                .map(|(seed, size)| LayerRef { digest: Digest::of(&seed), size })
                .collect(),
        )
    })
}

proptest! {
    /// Manifests survive JSON round-trips exactly.
    #[test]
    fn manifest_json_roundtrip(m in arb_manifest()) {
        let text = m.to_json();
        prop_assert_eq!(Manifest::from_json(&text), Some(m));
    }

    /// Serialization is deterministic, so the manifest digest is stable.
    #[test]
    fn manifest_digest_stable(m in arb_manifest()) {
        prop_assert_eq!(m.digest(), m.digest());
        let reparsed = Manifest::from_json(&m.to_json()).unwrap();
        prop_assert_eq!(reparsed.digest(), m.digest());
    }

    /// Digest docker-string round-trips for arbitrary content.
    #[test]
    fn digest_string_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let d = Digest::of(&data);
        prop_assert_eq!(Digest::parse(&d.to_docker_string()), Some(d));
    }

    /// `Digest::parse` reads wire input: it never panics and accepts
    /// exactly `sha256:` + 64 ASCII hex digits, which then round-trip.
    /// Padding to 64 bytes lands multi-byte characters at every offset of
    /// a right-length input.
    #[test]
    fn digest_parse_is_total(chars in proptest::collection::vec(any::<char>(), 0..70),
                             pad in any::<bool>()) {
        let mut body = String::new();
        for c in chars {
            if body.len() + c.len_utf8() <= 64 {
                body.push(c);
            }
        }
        while pad && body.len() < 64 {
            body.push('0');
        }
        let text = format!("sha256:{body}");
        let valid = body.len() == 64 && body.bytes().all(|b| b.is_ascii_hexdigit());
        match Digest::parse(&text) {
            Some(d) => {
                prop_assert!(valid, "accepted {:?}", text);
                prop_assert_eq!(d.to_docker_string(), text.to_ascii_lowercase());
            }
            None => prop_assert!(!valid, "rejected {:?}", text),
        }
    }

    /// RepoName::parse(full()) is the identity on valid names.
    #[test]
    fn repo_name_roundtrip(ns in "[a-z][a-z0-9]{0,14}", name in "[a-z][a-z0-9_.-]{0,20}") {
        let user = RepoName::user(&ns, &name);
        prop_assert_eq!(RepoName::parse(&user.full()), Some(user));
        let official = RepoName::official(&name);
        prop_assert_eq!(RepoName::parse(&official.full()), Some(official));
    }
}
