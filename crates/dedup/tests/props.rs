//! Property tests for the per-digest indexes: over seeded random layer and
//! image populations, every analysis that folds an index equals a plain
//! sequential fold written here, at every thread count.
//!
//! Each population draws its files from a small content universe, so
//! copies repeat within and across layers, and one content ("chameleon")
//! is classified differently by path in every layer that holds it. Layers
//! can be empty; images share layers, can list one layer twice, and can
//! name a layer that was never analyzed.

use dhub_dedup::{
    cross_duplicates, dedup_by_group, dedup_by_kind, dedup_growth, FileDedupStats, FileIndex,
    ImageIndex, ImageLayers, TypeDedupRow,
};
use dhub_digest::{FxHashMap, FxHashSet};
use dhub_model::{Digest, FileKind, FileRecord, LayerProfile, TypeGroup};
use dhub_stats::Rng;
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 48;
const THREADS: [usize; 3] = [1, 2, 8];

fn population(seed: u64) -> Vec<LayerProfile> {
    let mut rng = Rng::new(seed);
    let universe = 1 + rng.below(60);
    (0..1 + rng.below(40))
        .map(|i| {
            let mut files: Vec<FileRecord> = (0..rng.below(30))
                .map(|_| {
                    let proto = rng.below(universe);
                    // A quarter of the contents classify three ways by path.
                    let variant = if proto.is_multiple_of(4) { rng.below(3) } else { 0 };
                    let kind = FileKind::ALL[((proto * 7 + variant) as usize) % FileKind::COUNT];
                    let digest = Digest::of(&proto.to_le_bytes());
                    FileRecord { digest, kind, size: proto % 5 * 100 }
                })
                .collect();
            if rng.chance(0.5) {
                let kind = FileKind::ALL[i as usize % FileKind::COUNT];
                files.push(FileRecord { digest: Digest::of(b"chameleon"), kind, size: 77 });
            }
            LayerProfile {
                digest: Digest::of(&(seed << 8 | i).to_le_bytes()),
                fls: files.iter().map(|f| f.size).sum(),
                cls: 1,
                dir_count: 1,
                file_count: files.len() as u64,
                max_depth: 1,
                files,
            }
        })
        .collect()
}

/// Images over `layers`: each lists up to five layer references drawn with
/// replacement, now and then one nobody analyzed.
fn images(seed: u64, layers: &[LayerProfile]) -> Vec<ImageLayers> {
    let mut rng = Rng::new(seed ^ 0x1a6e5);
    let unanalyzed = Digest::of(b"never analyzed");
    let pick = |rng: &mut Rng| match rng.below(layers.len() as u64 + 1) as usize {
        i if i < layers.len() => layers[i].digest,
        _ => unanalyzed,
    };
    (0..rng.below(12)).map(|_| ImageLayers { layers: (0..rng.below(6)).map(|_| pick(&mut rng)).collect() }).collect()
}

fn by_digest(layers: &[LayerProfile]) -> FxHashMap<Digest, LayerProfile> {
    layers.iter().map(|l| (l.digest, l.clone())).collect()
}

/// Image fractions the plain way: a set of digests per image, a count of
/// images per digest, then every file instance of every image checked.
fn reference_image_fractions(
    images: &[ImageLayers],
    profiles: &FxHashMap<Digest, LayerProfile>,
) -> Vec<f64> {
    let files = |img: &ImageLayers| -> Vec<Digest> {
        let layers = img.layers.iter().filter_map(|ld| profiles.get(ld));
        layers.flat_map(|lp| lp.files.iter().map(|f| f.digest)).collect()
    };
    let mut holders: FxHashMap<Digest, u32> = FxHashMap::default();
    for img in images {
        for d in files(img).into_iter().collect::<FxHashSet<Digest>>() {
            *holders.entry(d).or_default() += 1;
        }
    }
    let fraction = |all: Vec<Digest>| {
        let dup = all.iter().filter(|d| holders[d] > 1).count();
        (!all.is_empty()).then(|| dup as f64 / all.len() as f64)
    };
    images.iter().filter_map(|img| fraction(files(img))).collect()
}

/// One unique content: (copies, size, smallest kind, distinct layer positions).
type Entry = (u64, u64, FileKind, BTreeSet<usize>);

/// The sequential reference index.
type Reference = BTreeMap<Digest, Entry>;

fn reference(layers: &[&LayerProfile]) -> Reference {
    let mut index = Reference::new();
    for (at, layer) in layers.iter().enumerate() {
        for f in &layer.files {
            let e = index.entry(f.digest).or_insert((0, f.size, f.kind, BTreeSet::new()));
            e.0 += 1;
            e.2 = e.2.min(f.kind);
            e.3.insert(at);
        }
    }
    index
}

fn reference_stats(index: &Reference) -> FileDedupStats {
    let mut repeat_counts: Vec<u64> = index.values().map(|e| e.0).collect();
    repeat_counts.sort_unstable_by(|a, b| b.cmp(a));
    // BTreeMap iterates digests ascending, so the first strict maximum is
    // the smallest digest among the tied.
    let (mut max_repeat, mut max_repeat_size) = (0, 0);
    for e in index.values() {
        if e.0 > max_repeat {
            (max_repeat, max_repeat_size) = (e.0, e.1);
        }
    }
    FileDedupStats {
        total_instances: index.values().map(|e| e.0).sum(),
        unique_files: index.len() as u64,
        total_bytes: index.values().map(|e| e.0 * e.1).sum(),
        unique_bytes: index.values().map(|e| e.1).sum(),
        repeat_counts,
        max_repeat,
        max_repeat_size,
    }
}

fn row_of<'a>(entries: impl Iterator<Item = &'a Entry>) -> TypeDedupRow {
    entries.fold(TypeDedupRow::default(), |r, e| TypeDedupRow {
        instances: r.instances + e.0,
        unique: r.unique + 1,
        bytes: r.bytes + e.0 * e.1,
        unique_bytes: r.unique_bytes + e.1,
    })
}

fn reference_groups(index: &Reference) -> Vec<(TypeGroup, TypeDedupRow)> {
    let rows = TypeGroup::ALL.iter();
    rows.map(|&g| (g, row_of(index.values().filter(|e| e.2.group() == g)))).collect()
}

fn reference_kinds(index: &Reference, group: TypeGroup) -> Vec<(FileKind, TypeDedupRow)> {
    let kinds = FileKind::ALL.iter().filter(|k| k.group() == group);
    let rows = kinds.map(|&k| (k, row_of(index.values().filter(|e| e.2 == k))));
    rows.filter(|(_, r)| r.unique > 0).collect()
}

fn reference_layer_fractions(layers: &[&LayerProfile], index: &Reference) -> Vec<f64> {
    let nonempty = layers.iter().filter(|l| !l.files.is_empty());
    let dup = |l: &LayerProfile| l.files.iter().filter(|f| index[&f.digest].3.len() > 1).count();
    nonempty.map(|l| dup(l) as f64 / l.files.len() as f64).collect()
}

fn summary(s: &FileDedupStats) -> (u64, u64, u64, u64, Vec<u64>, u64, u64) {
    let (counts, max) = (s.repeat_counts.clone(), s.max_repeat);
    let size = s.max_repeat_size;
    (s.total_instances, s.unique_files, s.total_bytes, s.unique_bytes, counts, max, size)
}

#[test]
fn index_folds_equal_the_sequential_fold() {
    for seed in 0..CASES {
        let pop = population(seed);
        let refs: Vec<&LayerProfile> = pop.iter().collect();
        let want = reference(&refs);
        let no_images = ImageIndex::build(&[], &FxHashMap::default());
        let fractions: Vec<u64> =
            reference_layer_fractions(&refs, &want).iter().map(|f| f.to_bits()).collect();
        for threads in THREADS {
            let case = format!("seed={seed} threads={threads}");
            let index = FileIndex::build(&refs, threads);
            assert_eq!(summary(&index.stats()), summary(&reference_stats(&want)), "{case}");
            assert_eq!(dedup_by_group(&index), reference_groups(&want), "{case}");
            for g in TypeGroup::ALL {
                assert_eq!(dedup_by_kind(&index, g), reference_kinds(&want, g), "{case} {g:?}");
            }
            let cd = cross_duplicates(&refs, &index, &[], &no_images);
            let got: Vec<u64> = cd.layer_fractions.iter().map(|f| f.to_bits()).collect();
            assert_eq!(got, fractions, "{case}");
        }
    }
}

#[test]
fn image_index_equals_per_image_sets() {
    for seed in 0..CASES {
        let pop = population(seed);
        let (images, profiles) = (images(seed, &pop), by_digest(&pop));
        // Per content: first-seen size and the set of images holding it.
        let mut want: BTreeMap<Digest, (u64, BTreeSet<u32>)> = BTreeMap::new();
        for (id, img) in images.iter().enumerate() {
            for f in img.layers.iter().filter_map(|ld| profiles.get(ld)).flat_map(|lp| &lp.files) {
                want.entry(f.digest).or_insert((f.size, BTreeSet::new())).1.insert(id as u32);
            }
        }
        let index = ImageIndex::build(&images, &profiles);
        let got: BTreeMap<Digest, (u64, BTreeSet<u32>)> = (index.iter())
            .map(|(d, size, ids)| {
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "seed={seed}: ids not sorted");
                (d, (size, ids.iter().copied().collect()))
            })
            .collect();
        assert_eq!(index.iter().count(), want.len(), "seed={seed}: a content listed twice");
        assert_eq!(got, want, "seed={seed}");
    }
}

#[test]
fn image_fractions_equal_per_image_sets() {
    for seed in 0..CASES {
        let pop = population(seed);
        let refs: Vec<&LayerProfile> = pop.iter().collect();
        let (images, profiles) = (images(seed, &pop), by_digest(&pop));
        let want: Vec<u64> =
            reference_image_fractions(&images, &profiles).iter().map(|f| f.to_bits()).collect();
        let (files, members) = (FileIndex::build(&refs, 1), ImageIndex::build(&images, &profiles));
        let cd = cross_duplicates(&refs, &files, &images, &members);
        let got: Vec<u64> = cd.image_fractions.iter().map(|f| f.to_bits()).collect();
        assert_eq!(got, want, "seed={seed}");
    }
}

#[test]
fn growth_points_equal_per_sample_stats() {
    for seed in 0..CASES {
        let pop = population(seed);
        let refs: Vec<&LayerProfile> = pop.iter().collect();
        // Out of order, repeated, empty and past the population.
        let sizes = [refs.len() / 2, 0, 1, refs.len() / 3, refs.len(), 1, refs.len() + 5];
        // The samples are nested prefixes of one seeded shuffle.
        let mut order: Vec<usize> = (0..refs.len()).collect();
        Rng::new(seed ^ 0x5eed).shuffle(&mut order);
        let points = dedup_growth(&refs, &sizes, seed ^ 0x5eed);
        assert_eq!(points.len(), sizes.len());
        for (p, &want) in points.iter().zip(&sizes) {
            let n = want.min(refs.len());
            let sample: Vec<&LayerProfile> = order[..n].iter().map(|&i| refs[i]).collect();
            let got = (p.layers, p.count_ratio.to_bits(), p.capacity_ratio.to_bits());
            let bits = |s: FileDedupStats| (n, s.count_ratio().to_bits(), s.capacity_ratio().to_bits());
            assert_eq!(got, bits(reference_stats(&reference(&sample))), "seed={seed} n={n}");
            for threads in THREADS {
                let stats = FileIndex::build(&sample, threads).stats();
                assert_eq!(got, bits(stats), "seed={seed} n={n} threads={threads}");
            }
        }
    }
}
