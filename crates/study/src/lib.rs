//! End-to-end study pipeline and figure renderers.
//!
//! This crate ties the substrates together exactly as §III of the paper
//! describes: crawl → download → analyze → characterize/dedup, and then
//! regenerates every table and figure of §IV–§V as a [`report::FigureReport`]
//! with paper-vs-measured anchor comparisons (collected in EXPERIMENTS.md).

pub mod carving;
pub mod db;
pub mod distributed;
pub mod figures;
pub mod latency;
pub mod pipeline;
pub mod report;
pub mod versions;

pub use pipeline::{run_study, StudyData};
pub use report::{Anchor, FigureReport};
