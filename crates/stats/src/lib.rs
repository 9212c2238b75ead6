//! Statistics toolkit for the Docker Hub study.
//!
//! Both sides of the reproduction live here:
//!
//! * **generation** — a deterministic PRNG ([`rng::Rng`]) and the samplers
//!   ([`dist`]) the synthetic hub draws from (log-normal layer sizes, Zipf
//!   popularity, weighted categorical file-type mixes),
//! * **measurement** — empirical CDFs ([`cdf::Ecdf`]), linear/log
//!   histograms ([`histogram`]), and summary statistics ([`summary`]) that
//!   render the paper's figures.
//!
//! Determinism is a design requirement: every figure in EXPERIMENTS.md is
//! produced at a pinned seed, so the PRNG is our own (SplitMix64-seeded
//! xoshiro256**) rather than a crate whose stream might change across
//! versions.

pub mod cdf;
pub mod dist;
pub mod histogram;
pub mod rng;
pub mod summary;

pub use cdf::Ecdf;
pub use dist::{Categorical, LogNormal, Pareto, Zipf};
pub use histogram::{Histogram, LogHistogram};
pub use rng::Rng;
pub use summary::{gini, lorenz_curve, Summary};
