//! Calibration constants — every number here cites the paper statistic it
//! reproduces. EXPERIMENTS.md compares what the pipeline measures back
//! against these targets.

use dhub_model::{FileKind, TypeGroup};

/// Generator configuration. All sizes are *paper-scale bytes*; the
/// generator divides by `size_scale` when materializing content so a
/// 457k-repo / 167 TB population shape fits on a laptop.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// PRNG seed; the whole hub is a pure function of it.
    pub seed: u64,
    /// Number of distinct repositories (paper: 457,627).
    pub repos: usize,
    /// Divide all file sizes by this factor (1 = paper scale).
    pub size_scale: u64,
    /// Fraction of repos whose pulls require auth (paper: 13 % of the
    /// 111,384 failures ≈ 3.2 % of repos, §III-B).
    pub auth_fraction: f64,
    /// Fraction of repos without a `latest` tag (87 % of failures ≈ 21.1 %).
    pub no_latest_fraction: f64,
    /// Search-index duplication factor (634,412 hits / 457,627 repos).
    pub search_duplication: f64,
    /// Search page size for the crawler.
    pub search_page_size: usize,
    /// Threads for parallel generation.
    pub threads: usize,
}

impl SynthConfig {
    /// Default benchmark scale: big enough for stable distribution shapes,
    /// small enough to generate in seconds.
    pub fn default_scale(seed: u64) -> SynthConfig {
        SynthConfig {
            seed,
            repos: 800,
            size_scale: 128,
            auth_fraction: 0.032,
            no_latest_fraction: 0.211,
            search_duplication: 634_412.0 / 457_627.0,
            search_page_size: 25,
            threads: dhub_par::default_threads(),
        }
    }

    /// Tiny scale for unit/integration tests.
    pub fn tiny(seed: u64) -> SynthConfig {
        SynthConfig { repos: 90, size_scale: 1024, ..SynthConfig::default_scale(seed) }
    }

    /// Overrides the repository count.
    pub fn with_repos(mut self, repos: usize) -> SynthConfig {
        self.repos = repos;
        self
    }
}

// --- Layer-level anchors (Figs. 3–7) -------------------------------------

/// Fraction of layers with zero files (§IV-A: 7 %).
pub const LAYER_EMPTY_FRACTION: f64 = 0.07;
/// Fraction of layers with exactly one file (§IV-A: 27 %).
pub const LAYER_SINGLE_FILE_FRACTION: f64 = 0.27;

/// Files-per-layer body (conditional on ≥ 2 files): a three-bucket
/// log-normal mixture `(weight, median, sigma)` — small RUN layers, package
/// layers, and OS/stack layers — shaped for Fig. 5's p50 = 30 with a heavy
/// tail. The paper's extreme tail (p90 = 7,410; max 826,196) is truncated
/// at [`LAYER_FILES_CAP`] so a laptop can materialize the dataset;
/// EXPERIMENTS.md discusses the effect.
pub const LAYER_FILE_BUCKETS: [(f64, f64, f64); 3] =
    [(0.606, 30.0, 1.1), (0.273, 250.0, 1.0), (0.121, 3500.0, 0.7)];
/// Hard cap on files per generated layer.
pub const LAYER_FILES_CAP: u64 = 30_000;

/// Directories per file (Fig. 5 p50 30 files vs Fig. 6 p50 11 dirs ≈ 2.7).
pub const FILES_PER_DIR: f64 = 2.7;

/// Directory-depth weights for depths 1..=12; mode 3 (Fig. 7b), p50 < 4,
/// p90 < 10 (Fig. 7a).
pub const DEPTH_WEIGHTS: [f64; 12] =
    [0.12, 0.28, 0.51, 0.03, 0.020, 0.014, 0.010, 0.006, 0.004, 0.003, 0.002, 0.001];

// --- Image-level anchors (Figs. 9–12) ------------------------------------

/// Layers-per-image pmf support (Fig. 10: p50 8, p90 18, mode 8, max 120).
pub const LAYERS_PER_IMAGE_MAX: usize = 120;
/// Fraction of single-layer images (7,060 / 355,319 ≈ 2 %).
pub const SINGLE_LAYER_IMAGE_FRACTION: f64 = 0.02;
/// Log-normal body for layers/image before the mode boost.
pub const LAYERS_PER_IMAGE_MEDIAN: f64 = 8.0;
pub const LAYERS_PER_IMAGE_P90: f64 = 18.0;
/// Multiplier applied to the pmf at exactly 8 layers, reproducing the
/// distinct mode the paper observes (51,300 images with 8 layers).
pub const LAYERS_PER_IMAGE_MODE_BOOST: f64 = 1.6;

/// Probability an image contains the famous shared *empty layer*
/// (184,171 / 355,319 ≈ 52 %, §V-A).
pub const EMPTY_LAYER_IMAGE_FRACTION: f64 = 0.52;

/// Probability an image is built `FROM` a shared base chain (rather than
/// from scratch). Drives Fig. 23's layer-sharing head.
pub const BASE_CHAIN_IMAGE_FRACTION: f64 = 0.85;

/// Probability an app layer is reused from a neighbour image of the same
/// namespace (produces the refcount-2 bucket of Fig. 23: ~5 %).
pub const APP_LAYER_REUSE_PROB: f64 = 0.18;

// --- Base images ----------------------------------------------------------

/// One shared base image: a chain of layers many images build on.
pub struct BaseSpec {
    /// Total files across the chain (ubuntu:14.04 ≈ 3k, alpine ≈ 100).
    pub files: u64,
    /// Total FLS across the chain, paper-scale bytes.
    pub bytes: f64,
    /// Chain length in layers.
    pub chain: usize,
}

/// Archetypes mixed (cyclically) into the base pool; the pool is ranked by
/// Zipf popularity so alpine/debian-like bases dominate references.
pub const BASE_ARCHETYPES: [BaseSpec; 5] = [
    BaseSpec { files: 80, bytes: 5.0e6, chain: 1 },     // alpine-like
    BaseSpec { files: 450, bytes: 55.0e6, chain: 3 },   // debian-slim-like
    BaseSpec { files: 1500, bytes: 190.0e6, chain: 4 }, // ubuntu-like
    BaseSpec { files: 5000, bytes: 600.0e6, chain: 6 }, // language stack
    BaseSpec { files: 15000, bytes: 1.6e9, chain: 8 },  // anaconda-like
];

/// Number of distinct base images as a function of repo count.
pub fn base_pool_size(repos: usize) -> usize {
    (repos / 40).clamp(5, 400)
}

/// Zipf exponent over base-image popularity (drives the 29k–33k reference
/// counts of the top base layers in §V-A).
pub const BASE_ZIPF_EXPONENT: f64 = 1.05;

// --- File-type mix (Figs. 13–22) ------------------------------------------

/// Per-kind generation parameters: `(kind, count_share, median_size,
/// p90_size)` — sizes in paper-scale bytes. Count shares sum to 1.0 and are
/// chosen so the group-level count/capacity shares match Figs. 14–22 (see
/// DESIGN.md §4 for the arithmetic).
pub struct KindSpec {
    pub kind: FileKind,
    pub count_share: f64,
    pub median_size: f64,
    pub p90_size: f64,
}

/// The full kind mix.
pub const KIND_MIX: [KindSpec; 48] = [
    // EOL (11 % count, 37 % capacity; Fig. 16: IR 64 % / ELF 30 % of EOL).
    KindSpec { kind: FileKind::Elf, count_share: 0.033, median_size: 95_000.0, p90_size: 600_000.0 }, // avg ≈ 312 KB
    KindSpec { kind: FileKind::PythonBytecode, count_share: 0.0572, median_size: 4_500.0, p90_size: 20_000.0 }, // avg ≈ 9 KB
    KindSpec { kind: FileKind::JavaClass, count_share: 0.009, median_size: 3_000.0, p90_size: 15_000.0 },
    KindSpec { kind: FileKind::TerminfoCompiled, count_share: 0.004, median_size: 1_500.0, p90_size: 3_500.0 },
    KindSpec { kind: FileKind::PeExecutable, count_share: 0.0022, median_size: 60_000.0, p90_size: 500_000.0 },
    KindSpec { kind: FileKind::MachO, count_share: 0.00001, median_size: 80_000.0, p90_size: 400_000.0 },
    KindSpec { kind: FileKind::Coff, count_share: 0.0006, median_size: 20_000.0, p90_size: 120_000.0 },
    KindSpec { kind: FileKind::DebPackage, count_share: 0.0012, median_size: 90_000.0, p90_size: 900_000.0 },
    KindSpec { kind: FileKind::RpmPackage, count_share: 0.0008, median_size: 90_000.0, p90_size: 900_000.0 },
    KindSpec { kind: FileKind::Library, count_share: 0.002, median_size: 50_000.0, p90_size: 500_000.0 },
    // Source code (13 % count; Fig. 17: C/C++ 80.3 %, Perl 9 %, Ruby 8 %).
    KindSpec { kind: FileKind::CSource, count_share: 0.1044, median_size: 3_200.0, p90_size: 14_000.0 },
    KindSpec { kind: FileKind::Perl5Module, count_share: 0.0117, median_size: 4_400.0, p90_size: 19_000.0 },
    KindSpec { kind: FileKind::RubyModule, count_share: 0.0104, median_size: 1_300.0, p90_size: 5_000.0 },
    KindSpec { kind: FileKind::PascalSource, count_share: 0.0011, median_size: 3_000.0, p90_size: 12_000.0 },
    KindSpec { kind: FileKind::FortranSource, count_share: 0.0009, median_size: 3_000.0, p90_size: 12_000.0 },
    KindSpec { kind: FileKind::ApplesoftBasic, count_share: 0.0007, median_size: 2_000.0, p90_size: 8_000.0 },
    KindSpec { kind: FileKind::LispScheme, count_share: 0.0008, median_size: 2_500.0, p90_size: 10_000.0 },
    // Scripts (9 % count; Fig. 18: Python 53.5 %, shell 20 %, Ruby 10 %).
    KindSpec { kind: FileKind::PythonScript, count_share: 0.0482, median_size: 3_500.0, p90_size: 15_000.0 },
    KindSpec { kind: FileKind::ShellScript, count_share: 0.018, median_size: 550.0, p90_size: 1_700.0 },
    KindSpec { kind: FileKind::RubyScript, count_share: 0.009, median_size: 1_400.0, p90_size: 5_500.0 },
    KindSpec { kind: FileKind::PerlScript, count_share: 0.0045, median_size: 2_500.0, p90_size: 10_000.0 },
    KindSpec { kind: FileKind::PhpScript, count_share: 0.0035, median_size: 2_500.0, p90_size: 10_000.0 },
    KindSpec { kind: FileKind::Makefile, count_share: 0.0025, median_size: 1_500.0, p90_size: 6_000.0 },
    KindSpec { kind: FileKind::M4Macro, count_share: 0.0012, median_size: 2_000.0, p90_size: 8_000.0 },
    KindSpec { kind: FileKind::NodeScript, count_share: 0.0016, median_size: 2_000.0, p90_size: 9_000.0 },
    KindSpec { kind: FileKind::TclScript, count_share: 0.0008, median_size: 1_800.0, p90_size: 7_000.0 },
    KindSpec { kind: FileKind::AwkScript, count_share: 0.0007, median_size: 1_200.0, p90_size: 4_000.0 },
    // Documents (44 % count, 14 % capacity; Fig. 19: ASCII 80 %, XML/HTML 13 %).
    KindSpec { kind: FileKind::AsciiText, count_share: 0.352, median_size: 2_800.0, p90_size: 16_000.0 },
    KindSpec { kind: FileKind::Utf8Text, count_share: 0.022, median_size: 2_800.0, p90_size: 16_000.0 },
    KindSpec { kind: FileKind::Iso8859Text, count_share: 0.0018, median_size: 2_800.0, p90_size: 16_000.0 },
    KindSpec { kind: FileKind::XmlHtml, count_share: 0.0572, median_size: 4_800.0, p90_size: 26_000.0 },
    KindSpec { kind: FileKind::PdfPs, count_share: 0.004, median_size: 30_000.0, p90_size: 300_000.0 },
    KindSpec { kind: FileKind::LatexDoc, count_share: 0.003, median_size: 4_000.0, p90_size: 20_000.0 },
    // Archival (≈7 % count, 23 % capacity; Fig. 20 + §IV-C avg sizes).
    KindSpec { kind: FileKind::ZipGzip, count_share: 0.0674, median_size: 22_000.0, p90_size: 200_000.0 }, // avg ≈ 67 KB
    KindSpec { kind: FileKind::Bzip2, count_share: 0.00105, median_size: 65_000.0, p90_size: 480_000.0 },  // avg ≈ 199 KB
    KindSpec { kind: FileKind::TarArchive, count_share: 0.00105, median_size: 140_000.0, p90_size: 800_000.0 }, // avg ≈ 466 KB
    KindSpec { kind: FileKind::XzArchive, count_share: 0.0005, median_size: 160_000.0, p90_size: 950_000.0 },   // avg ≈ 534 KB
    // Image data (4 % count; Fig. 22: PNG 67 %, JPEG ≈ 15 %).
    KindSpec { kind: FileKind::Png, count_share: 0.0268, median_size: 5_000.0, p90_size: 30_000.0 },
    KindSpec { kind: FileKind::Jpeg, count_share: 0.006, median_size: 15_000.0, p90_size: 90_000.0 },
    KindSpec { kind: FileKind::Svg, count_share: 0.004, median_size: 3_000.0, p90_size: 15_000.0 },
    KindSpec { kind: FileKind::Gif, count_share: 0.0032, median_size: 5_000.0, p90_size: 30_000.0 },
    // Databases (0.3 % count, avg 978.8 KB; Fig. 21: BDB 33 %, MySQL 30 %,
    // SQLite 7 % count / 57 % capacity).
    KindSpec { kind: FileKind::BerkeleyDb, count_share: 0.00095, median_size: 120_000.0, p90_size: 900_000.0 },
    KindSpec { kind: FileKind::MysqlDb, count_share: 0.00085, median_size: 120_000.0, p90_size: 900_000.0 },
    KindSpec { kind: FileKind::SqliteDb, count_share: 0.00015, median_size: 2_500_000.0, p90_size: 18_000_000.0 },
    KindSpec { kind: FileKind::OtherDb, count_share: 0.00055, median_size: 200_000.0, p90_size: 1_500_000.0 },
    // Other: empty files (the most-duplicated object in the dataset) and
    // misc binary/video.
    KindSpec { kind: FileKind::Empty, count_share: 0.03, median_size: 0.0, p90_size: 0.0 },
    KindSpec { kind: FileKind::OtherBinary, count_share: 0.08719, median_size: 3_500.0, p90_size: 40_000.0 },
    KindSpec { kind: FileKind::Video, count_share: 0.0003, median_size: 800_000.0, p90_size: 8_000_000.0 },
];

/// Target per-group redundancy (fraction of file instances removable by
/// dedup) at full scale — Fig. 27: SC 96.8 %, Scr 98 %, Doc 92 %, EOL 86 %,
/// Arch 86 %, Img 86 %, DB 76 %.
fn group_redundancy(group: TypeGroup) -> f64 {
    match group {
        TypeGroup::SourceCode => 0.968,
        TypeGroup::Scripts => 0.98,
        TypeGroup::Documents => 0.92,
        TypeGroup::Eol => 0.86,
        TypeGroup::Archival => 0.86,
        TypeGroup::ImageData => 0.86,
        TypeGroup::Database => 0.76,
        TypeGroup::Other => 0.90,
    }
}

/// Per-kind redundancy overrides inside EOL/SC (Figs. 28–29): libraries
/// 53.5 %, COFF 61 %, ELF/IR/PE ≈ 87 %, Lisp/Scheme lower than other SC.
pub fn kind_redundancy(kind: FileKind) -> f64 {
    match kind {
        FileKind::Library => 0.535,
        FileKind::Coff => 0.61,
        FileKind::Elf | FileKind::PeExecutable => 0.87,
        FileKind::PythonBytecode | FileKind::JavaClass | FileKind::TerminfoCompiled => 0.87,
        FileKind::LispScheme => 0.72,
        FileKind::Empty => 0.99999, // one global empty file
        k => group_redundancy(k.group()),
    }
}

/// Zipf exponent over prototype popularity within a pool — shapes the
/// repeat-count CDF of Fig. 24 (p50 ≈ 4 copies, p90 ≤ 10, huge maximum).
pub const POOL_ZIPF_EXPONENT: f64 = 0.85;

// --- Popularity (Fig. 8) ---------------------------------------------------

/// Mixture weights for repository pull counts: dormant / community /
/// popular-tail. Tuned for p50 = 40, p90 = 333, secondary histogram peak
/// near 37, and extreme head skew.
pub const PULLS_DORMANT_WEIGHT: f64 = 0.18;
pub const PULLS_COMMUNITY_WEIGHT: f64 = 0.67;
/// Community component: log-normal with mode ≈ 31 (the "peak at 37").
pub const PULLS_COMMUNITY_MEDIAN: f64 = 45.0;
pub const PULLS_COMMUNITY_SIGMA: f64 = 0.6;
/// Popular tail: bounded Pareto.
pub const PULLS_TAIL_LO: f64 = 300.0;
pub const PULLS_TAIL_HI: f64 = 5.0e6;
pub const PULLS_TAIL_ALPHA: f64 = 0.85;

/// The famous repositories the paper names, with their reported pull
/// counts (§IV-B): nginx 650 M, cadvisor 434 M, redis 264 M,
/// registrator 212 M, ubuntu 28 M.
pub const FAMOUS_REPOS: [(&str, u64); 5] = [
    ("nginx", 650_000_000),
    ("google/cadvisor", 434_000_000),
    ("redis", 264_000_000),
    ("gliderlabs/registrator", 212_000_000),
    ("ubuntu", 28_000_000),
];

/// Number of official repositories (paper: "less than 200").
pub fn official_repo_count(repos: usize) -> usize {
    (repos / 60).clamp(3, 190)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_mix_shares_sum_to_one() {
        let total: f64 = KIND_MIX.iter().map(|k| k.count_share).sum();
        assert!((total - 1.0).abs() < 1e-6, "shares sum to {total}");
    }

    #[test]
    fn kind_mix_group_count_shares_match_fig14() {
        let mut by_group = std::collections::HashMap::new();
        for spec in &KIND_MIX {
            *by_group.entry(spec.kind.group()).or_insert(0.0) += spec.count_share;
        }
        // Fig. 14a: Doc 44 %, SC 13 %, EOL 11 %, Scr 9 %, Img 4 %.
        assert!((by_group[&TypeGroup::Documents] - 0.44).abs() < 0.01);
        assert!((by_group[&TypeGroup::SourceCode] - 0.13).abs() < 0.01);
        assert!((by_group[&TypeGroup::Eol] - 0.11).abs() < 0.01);
        assert!((by_group[&TypeGroup::Scripts] - 0.09).abs() < 0.01);
        assert!((by_group[&TypeGroup::ImageData] - 0.04).abs() < 0.005);
    }

    #[test]
    fn capacity_shares_match_fig14() {
        // Approximate per-kind mean as exp(mu + sigma^2/2) of the log-normal
        // implied by (median, p90).
        let mut total = 0.0;
        let mut by_group = std::collections::HashMap::new();
        for spec in &KIND_MIX {
            if spec.median_size == 0.0 {
                continue;
            }
            let sigma = (spec.p90_size / spec.median_size).ln() / 1.2816;
            let mean = spec.median_size * (sigma * sigma / 2.0).exp();
            let cap = spec.count_share * mean;
            total += cap;
            *by_group.entry(spec.kind.group()).or_insert(0.0) += cap;
        }
        let share = |g: TypeGroup| by_group.get(&g).copied().unwrap_or(0.0) / total;
        // Fig. 14b: EOL 37 %, Arch 23 %, Doc 14 %.
        assert!((share(TypeGroup::Eol) - 0.37).abs() < 0.06, "EOL {}", share(TypeGroup::Eol));
        assert!((share(TypeGroup::Archival) - 0.23).abs() < 0.05, "Arch {}", share(TypeGroup::Archival));
        assert!((share(TypeGroup::Documents) - 0.14).abs() < 0.05, "Doc {}", share(TypeGroup::Documents));
    }

    #[test]
    fn depth_weights_mode_is_three() {
        let max = DEPTH_WEIGHTS.iter().cloned().fold(0.0, f64::max);
        assert_eq!(DEPTH_WEIGHTS[2], max);
    }

    #[test]
    fn redundancy_targets_in_unit_interval() {
        for g in TypeGroup::ALL {
            let r = group_redundancy(g);
            assert!((0.0..1.0).contains(&r));
        }
        assert!(kind_redundancy(FileKind::Library) < kind_redundancy(FileKind::Elf));
    }

    #[test]
    fn configs_are_sane() {
        let c = SynthConfig::default_scale(1);
        assert!(c.repos > 500);
        assert!(c.auth_fraction + c.no_latest_fraction < 0.5);
        let t = SynthConfig::tiny(1);
        assert!(t.repos < c.repos);
        assert!(t.size_scale > c.size_scale);
    }
}
