//! `provio-bench` — the evaluation harness.
//!
//! One runner per paper artifact (every figure and table of §6), run by
//! `provio experiments`. Each runner returns a [`report::Report`] that
//! renders as an aligned text table and saves as JSON, so EXPERIMENTS.md
//! numbers are regenerable and diffable.
//!
//! Experiments accept a [`Scale`]: `Quick` is a minutes-scale sweep with
//! the same *shape* as the paper's (same axes, same ratios of parameters);
//! `Paper` uses the paper's axis extents (up to 2048 DASSA files, up to
//! 4096 MPI ranks). Both are labeled in the output.

pub mod experiments;
pub mod report;
pub mod scale;

pub use report::Report;
pub use scale::Scale;
