//! `provio-bench` — the evaluation harness.
//!
//! One runner per paper artifact (every figure and table of §6), shared by
//! the `experiments` binary and the criterion benches. Each runner returns
//! a [`report::Report`] that renders as an aligned text table and saves as
//! JSON, so EXPERIMENTS.md numbers are regenerable and diffable.
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

/// The value of command-line option `flag`, taken from `args`. The
/// binaries share one exit contract — 0 pass, 1 fail, 2 bad arguments — so
/// a missing or malformed value exits 2 rather than falling back to a
/// default the caller did not ask for.
pub fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("bad or missing value for {flag} (try --help)");
        std::process::exit(2);
    })
}
