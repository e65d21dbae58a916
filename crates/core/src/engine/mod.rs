//! The PROV-IO User Engine (paper §4.2, §6.5): query, statistics,
//! visualization.

pub(crate) mod query;
pub(crate) mod stats;
pub mod viz;

pub use query::ProvQueryEngine;
pub use stats::IoStats;
pub use viz::to_dot;
