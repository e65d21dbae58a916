//! `provio-workflows` — the three evaluation workflows (paper §3, §6),
//! rebuilt as synthetic but behaviorally faithful drivers over the
//! simulated substrates:
//!
//! * [`topreco`] — the ML workflow (§3.1): `.ini` configuration + `.root`
//!   events → `.tfrecord` train/test sets → GNN training epochs with a
//!   deterministic accuracy curve → scores → reconstruction. Pure POSIX
//!   I/O, single process, instrumentable with PROV-IO's explicit APIs or
//!   with the ProvLake baseline at identical points (§6.4).
//! * [`dassa`] — the DAS analysis workflow (§3.2): `.tdms` inputs →
//!   `tdms2h5` conversion → `decimate` / `xcorr_stack` data products.
//!   HDF5 + POSIX, multi-program, multi-file, attribute-heavy, parallel
//!   over files on 32 virtual nodes.
//! * [`h5bench`] — the synthetic I/O workflow (§3.3): vpic-style timestep
//!   datasets in one shared HDF5 file accessed by up to 4096 MPI ranks
//!   under three patterns (write+read, write+overwrite+read,
//!   write+append+read) with 25 s of modeled compute per step.
//!
//! Every driver runs with provenance off (baseline) or on (a Table 3
//! selector preset), returns completion time + provenance size, and leaves
//! the file system available for querying — which is all the experiment
//! harness in `provio-bench` needs to regenerate the paper's figures.
#![warn(unreachable_pub)]

pub(crate) mod cluster;
pub mod dassa;
pub mod h5bench;
pub(crate) mod metrics;
pub mod topreco;

pub use cluster::Cluster;
pub use metrics::{ProvMode, RunMetrics};
