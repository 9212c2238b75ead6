//! File prototype pools — the engine behind file-level duplication.
//!
//! The paper's central finding is that only ~3 % of files are unique
//! (§V-B): developers install the same packages, copy the same sources,
//! and rebuild the same artifacts. The pool model captures that directly:
//! each taxonomy kind has a finite pool of unique *prototypes*; every file
//! a layer needs is drawn from the kind's pool by Zipf popularity. Dedup
//! behaviour then emerges:
//!
//! * pool size = expected instances × (1 − target redundancy), so per-kind
//!   dedup ratios land on the Fig. 27–29 targets at full draw counts,
//! * Zipf popularity gives the repeat-count skew of Fig. 24 (few hot
//!   prototypes with huge copy counts, a body around a handful of copies),
//! * for sample sizes below the pool size the measured dedup ratio drops —
//!   reproducing the dataset-size growth of Fig. 25 for free.
//!
//! Prototypes are `(kind, size, seed)` triples; bytes are forged lazily so
//! the pool itself is tiny.

use crate::calibration::{kind_redundancy, KindSpec, SynthConfig, KIND_MIX, POOL_ZIPF_EXPONENT};
use crate::forge::{forge, proto_name};
use dhub_model::FileKind;
use dhub_stats::{Categorical, LogNormal, Rng, Zipf};

/// One unique file prototype.
#[derive(Clone, Copy, Debug)]
pub struct Prototype {
    pub kind: FileKind,
    /// Materialized (already scale-divided) size in bytes.
    pub size: u64,
    /// Forge seed — equal seeds ⇒ identical bytes ⇒ one dedup identity.
    pub seed: u64,
    /// Index within the kind pool (names derive from it).
    pub index: u32,
}

impl Prototype {
    /// Forges the prototype's content.
    pub fn content(&self) -> Vec<u8> {
        forge(self.kind, self.size, self.seed)
    }

    /// The prototype's canonical file name.
    pub fn name(&self) -> String {
        proto_name(self.kind, self.index as usize)
    }
}

struct KindPool {
    protos: Vec<Prototype>,
    zipf: Zipf,
}

/// All pools plus the kind-selection distribution.
pub struct FilePool {
    kinds: Vec<Option<KindPool>>,
    /// Selects a kind per file draw (count shares of Fig. 14).
    kind_dist: Categorical,
    /// Maps categorical index → FileKind.
    kind_order: Vec<FileKind>,
}

impl FilePool {
    /// Builds pools sized for `expected_files` total draws.
    pub fn build(cfg: &SynthConfig, expected_files: u64) -> FilePool {
        let mut rng = Rng::new(cfg.seed ^ 0x9E3779B97F4A7C15);
        let mut kinds: Vec<Option<KindPool>> = (0..FileKind::COUNT).map(|_| None).collect();
        let mut weights = Vec::with_capacity(KIND_MIX.len());
        let mut kind_order = Vec::with_capacity(KIND_MIX.len());

        for spec in KIND_MIX.iter() {
            weights.push(spec.count_share);
            kind_order.push(spec.kind);
            let pool = Self::build_kind_pool(cfg, spec, expected_files, &mut rng);
            kinds[spec.kind.index()] = Some(pool);
        }
        FilePool { kinds, kind_dist: Categorical::new(&weights), kind_order }
    }

    fn build_kind_pool(
        cfg: &SynthConfig,
        spec: &KindSpec,
        expected_files: u64,
        rng: &mut Rng,
    ) -> KindPool {
        let expected_instances = (expected_files as f64 * spec.count_share).max(1.0);
        let redundancy = kind_redundancy(spec.kind);
        let unique = ((expected_instances * (1.0 - redundancy)).round() as usize).max(1);
        let size_dist = if spec.median_size > 0.0 {
            Some(LogNormal::from_median_p90(spec.median_size, spec.p90_size.max(spec.median_size)))
        } else {
            None
        };
        let protos = (0..unique)
            .map(|i| {
                let size = match &size_dist {
                    None => 0,
                    Some(d) => {
                        let paper_size = d.sample(rng);
                        ((paper_size / cfg.size_scale as f64) as u64).max(32)
                    }
                };
                Prototype { kind: spec.kind, size, seed: rng.next_u64(), index: i as u32 }
            })
            .collect();
        KindPool { protos, zipf: Zipf::new(unique, POOL_ZIPF_EXPONENT) }
    }

    /// Draws one file: picks a kind by count share, then a prototype by
    /// Zipf popularity within the kind pool.
    pub fn draw(&self, rng: &mut Rng) -> Prototype {
        let kind = self.kind_order[self.kind_dist.sample(rng)];
        self.draw_of_kind(kind, rng)
    }

    /// Draws a prototype of a specific kind.
    fn draw_of_kind(&self, kind: FileKind, rng: &mut Rng) -> Prototype {
        let pool = self.kinds[kind.index()].as_ref().expect("kind not in mix");
        let rank = pool.zipf.sample(rng);
        pool.protos[rank - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::TypeGroup;

    fn pool() -> FilePool {
        FilePool::build(&SynthConfig::tiny(1), 100_000)
    }

    #[test]
    fn pool_sizes_match_redundancy_targets() {
        let p = pool();
        let pool_size = |kind: FileKind| p.kinds[kind.index()].as_ref().map_or(0, |k| k.protos.len());
        // C sources: 10.44 % of 100k files ≈ 10,440 instances at 96.8 %
        // redundancy → ~334 unique prototypes.
        let c = pool_size(FileKind::CSource);
        assert!((234..434).contains(&c), "C pool {c}");
        // The empty file pool is a single prototype.
        assert_eq!(pool_size(FileKind::Empty), 1);
        // Low-redundancy kinds keep relatively more uniques.
        let lib_ratio = pool_size(FileKind::Library) as f64 / (100_000.0 * 0.002);
        assert!((0.3..0.6).contains(&lib_ratio), "lib unique ratio {lib_ratio}");
    }

    #[test]
    fn draws_are_dominated_by_duplicates() {
        let p = pool();
        let mut rng = Rng::new(2);
        let n = 50_000;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let proto = p.draw(&mut rng);
            seen.insert(proto.seed);
        }
        let redundancy = 1.0 - seen.len() as f64 / n as f64;
        // Overall target ≈ 0.857 at full scale; at 50k draws the pools are
        // partially covered so redundancy is a bit lower but still high.
        assert!(redundancy > 0.75, "redundancy {redundancy}");
    }

    #[test]
    fn kind_shares_respected() {
        let p = pool();
        let mut rng = Rng::new(3);
        let n = 100_000;
        let mut doc = 0usize;
        for _ in 0..n {
            if p.draw(&mut rng).kind.group() == TypeGroup::Documents {
                doc += 1;
            }
        }
        let share = doc as f64 / n as f64;
        assert!((0.40..0.48).contains(&share), "doc share {share}");
    }

    #[test]
    fn same_prototype_same_content() {
        let p = pool();
        let mut rng = Rng::new(4);
        let proto = p.draw_of_kind(FileKind::CSource, &mut rng);
        assert_eq!(proto.content(), proto.content());
        assert!(!proto.content().is_empty());
    }

    #[test]
    fn sizes_scaled_down() {
        let p = pool();
        // ELF paper median 95 KB; at size_scale 4096 the scaled median is
        // ~23 bytes but the 32-byte floor applies.
        let mut rng = Rng::new(5);
        for _ in 0..50 {
            let proto = p.draw_of_kind(FileKind::Elf, &mut rng);
            assert!(proto.size >= 32);
            assert!(proto.size < 10_000_000);
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let a = FilePool::build(&SynthConfig::tiny(9), 10_000);
        let b = FilePool::build(&SynthConfig::tiny(9), 10_000);
        let mut ra = Rng::new(1);
        let mut rb = Rng::new(1);
        for _ in 0..100 {
            let pa = a.draw(&mut ra);
            let pb = b.draw(&mut rb);
            assert_eq!(pa.seed, pb.seed);
            assert_eq!(pa.kind, pb.kind);
        }
    }
}
