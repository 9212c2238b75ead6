//! Image manifests (Docker Registry V2 schema 2 shape).
//!
//! A manifest lists the layer digests an image is assembled from plus
//! platform parameters (§II-B). On the wire it is JSON; the digest of the
//! serialized bytes is the image's content address.

use crate::digest::Digest;
use dhub_json::Json;

/// A reference to one layer blob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerRef {
    /// Digest of the *compressed* layer tarball.
    pub digest: Digest,
    /// Compressed size in bytes (CLS).
    pub size: u64,
}

/// An image manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Always 2 in this study.
    pub schema_version: u64,
    /// Target OS (the paper's dataset is effectively all linux).
    pub os: String,
    /// Target architecture.
    pub architecture: String,
    /// Ordered layer list, base first.
    pub layers: Vec<LayerRef>,
}

impl Manifest {
    /// Creates a linux/amd64 manifest over `layers`.
    pub fn new(layers: Vec<LayerRef>) -> Manifest {
        Manifest { schema_version: 2, os: "linux".into(), architecture: "amd64".into(), layers }
    }

    /// Serializes to canonical JSON bytes (deterministic key order).
    pub fn to_json(&self) -> String {
        let mut m = Json::obj();
        m.set("schemaVersion", self.schema_version)
            .set("mediaType", "application/vnd.docker.distribution.manifest.v2+json")
            .set("os", self.os.as_str())
            .set("architecture", self.architecture.as_str());
        let layers: Vec<Json> = self
            .layers
            .iter()
            .map(|l| {
                let mut o = Json::obj();
                o.set("mediaType", "application/vnd.docker.image.rootfs.diff.tar.gzip")
                    .set("size", l.size)
                    .set("digest", l.digest.to_docker_string());
                o
            })
            .collect();
        m.set("layers", Json::Arr(layers));
        m.to_string()
    }

    /// Parses a manifest from JSON text.
    pub fn from_json(text: &str) -> Option<Manifest> {
        let j = dhub_json::parse(text).ok()?;
        let schema_version = j.get("schemaVersion")?.as_u64()?;
        let os = j.get("os")?.as_str()?.to_string();
        let architecture = j.get("architecture")?.as_str()?.to_string();
        let layers = j
            .get("layers")?
            .as_arr()?
            .iter()
            .map(|l| {
                Some(LayerRef {
                    digest: Digest::parse(l.get("digest")?.as_str()?)?,
                    size: l.get("size")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Manifest { schema_version, os, architecture, layers })
    }

    /// Content address of the serialized manifest.
    pub fn digest(&self) -> Digest {
        Digest::of(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest::new(vec![
            LayerRef { digest: Digest::of(b"layer-0"), size: 1234 },
            LayerRef { digest: Digest::of(b"layer-1"), size: 99 },
        ])
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let text = m.to_json();
        assert_eq!(Manifest::from_json(&text), Some(m));
    }

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(sample().digest(), sample().digest());
        let other = Manifest::new(vec![LayerRef { digest: Digest::of(b"x"), size: 1 }]);
        assert_ne!(sample().digest(), other.digest());
    }

    #[test]
    fn wire_format_fields() {
        let text = sample().to_json();
        assert!(text.contains("\"schemaVersion\":2"));
        assert!(text.contains("manifest.v2+json"));
        assert!(text.contains("diff.tar.gzip"));
        assert!(text.contains("sha256:"));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Manifest::from_json("{}").is_none());
        assert!(Manifest::from_json("not json").is_none());
        assert!(Manifest::from_json(r#"{"schemaVersion":2,"os":"linux","architecture":"amd64","layers":[{"digest":"bad","size":1}]}"#).is_none());
    }
}
