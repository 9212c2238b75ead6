//! Property tests for the registry substrate.

use dhub_model::{Digest, LayerRef, Manifest, RepoName};
use dhub_registry::Registry;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blob store: whatever goes in comes back out under its digest.
    #[test]
    fn blobstore_roundtrip(blobs in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..2048), 1..10)) {
        let reg = Registry::new();
        let mut digests = Vec::new();
        for b in &blobs {
            digests.push(reg.blob_store().put(b.clone()));
        }
        for (b, d) in blobs.iter().zip(&digests) {
            let got = reg.blob_store().get(d).unwrap();
            prop_assert_eq!(got.as_slice(), b.as_slice());
        }
        // Unique count never exceeds inserted count.
        prop_assert!(reg.blob_store().len() <= blobs.len());
    }

    /// Push/pull invariant: a pushed manifest is always resolvable and its
    /// layers fetchable.
    #[test]
    fn push_pull_invariant(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..512), 1..6), tag in "[a-z][a-z0-9]{0,8}") {
        let reg = Registry::new();
        let repo = RepoName::user("prop", "repo");
        reg.create_repo(repo.clone(), false);
        let refs: Vec<LayerRef> = payloads
            .iter()
            .map(|p| LayerRef { digest: Digest::of(p), size: p.len() as u64 })
            .collect();
        let manifest = Manifest::new(refs);
        reg.push_image(&repo, &tag, &manifest, payloads.clone()).unwrap();
        let sess = reg.get_manifest(&repo, &tag, false).unwrap();
        prop_assert_eq!(&sess.manifest, &manifest);
        for l in &sess.manifest.layers {
            let blob = reg.get_blob(&l.digest).unwrap();
            prop_assert_eq!(Digest::of(&blob), l.digest);
        }
    }
}
