//! The generated inputs.
//!
//! Both study corpora are the same hub — same repositories, images,
//! layers and file trees — materialised at two size scales, so one does
//! its work per byte and the other per object:
//!
//! * *bytes*: `size_scale 8`, ~57 MiB compressed over ~9.6 k objects;
//!   inflate + SHA-256 + tar walk dominate.
//! * *files*: `size_scale 128`, ~5.4 MiB over ~9.4 k objects;
//!   per-object publish, recipe JSON and table writes dominate.
//!
//! The serve workload needs a catalogue rather than CPU work, so it uses
//! the *files* scale with three times the repositories.
//!
//! The hub's shape is part of each workload's definition and is generated
//! from [`CORPUS_SEED`], not from `--seed`: layer and file counts are
//! heavy-tailed, and ten hubs from ten seeds differed by 2× in durable
//! study time (0.37–0.76 s at 20 repositories), far outside any
//! regression bound. `--seed` drives what can vary without changing the
//! amount of work: the pull traces, retry jitter and lease schedule.
//! `--quick` (the smoke mode, and what the tests run) builds its hubs
//! from [`QUICK_CORPUS_SEED`], so every correctness check also runs on a
//! second hub shape.

use dhub_synth::SynthConfig;

pub const CORPUS_SEED: u64 = 42;
pub const QUICK_CORPUS_SEED: u64 = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corpus {
    pub name: &'static str,
    pub repos: usize,
    pub size_scale: u64,
}

pub const BYTES: Corpus = Corpus {
    name: "bytes",
    repos: 8,
    size_scale: 8,
};
pub const FILES: Corpus = Corpus {
    name: "files",
    repos: 8,
    size_scale: 128,
};
pub const SERVE_FILES: Corpus = Corpus {
    name: "files-24",
    repos: 24,
    size_scale: 128,
};

/// `--quick` shrinks every corpus to the generator's floor.
const QUICK_REPOS: usize = 4;

impl Corpus {
    pub fn config(&self, quick: bool) -> SynthConfig {
        let (seed, repos) = if quick {
            (QUICK_CORPUS_SEED, QUICK_REPOS)
        } else {
            (CORPUS_SEED, self.repos)
        };
        let mut cfg = SynthConfig::default_scale(seed).with_repos(repos);
        cfg.size_scale = if quick {
            self.size_scale.max(128)
        } else {
            self.size_scale
        };
        cfg
    }
}
