//! `provio` — the PROV-IO framework (paper §4.2, §5).
//!
//! End-to-end provenance for scientific workflows on (simulated) HPC
//! systems, with the paper's three major components:
//!
//! 1. **Provenance tracking** — transparent capture at two I/O layers plus
//!    explicit APIs:
//!    * [`connector::ProvIoVol`] — the PROV-IO Lib Connector: a stacked
//!      HDF5 VOL connector that forwards every object-level call to the
//!      inner connector and records the PROV-IO model's Entity/Activity/
//!      Agent information, maintaining a locked live-object table for
//!      concurrency control (the paper's "linked list with locking").
//!    * [`wrapper::PosixWrapper`] — the PROV-IO Syscall Wrapper: a
//!      [`provio_hpcfs::SyscallHook`] (the GOTCHA stand-in) that maps POSIX
//!      calls onto the model.
//!    * [`api::ProvIoApi`] — the explicit PROV-IO APIs for workflow-
//!      specific provenance (Configuration / Metrics / Type), used by Top
//!      Reco to map hyperparameters to training accuracy.
//! 2. **Provenance store** — [`store::ProvenanceStore`]: per-process
//!    in-memory RDF sub-graphs serialized asynchronously to per-process
//!    files on the parallel file system, merged after the run by
//!    [`merge::merge_directory`] with GUID-keyed deduplication.
//! 3. **User engine** — [`engine`]: sub-class selection (via
//!    [`provio_model::ClassSelector`] in [`config::ProvIoConfig`]), SPARQL
//!    queries, backward-lineage derivation, I/O statistics, and Graphviz
//!    visualization.
#![warn(unreachable_pub)]

pub(crate) mod api;
pub(crate) mod artifact;
pub(crate) mod collect;
pub(crate) mod config;
pub(crate) mod connector;
pub mod engine;
pub mod frame;
mod fsio;
pub mod merge;
pub(crate) mod names;
pub mod recover;
pub(crate) mod report;
pub(crate) mod scrub;
pub(crate) mod store;
pub(crate) mod tracker;
pub mod verify;
pub(crate) mod wrapper;

pub use api::ProvIoApi;
pub use collect::{Collector, DeliveryReport, NetClient, NetStats};
pub use config::{OverloadPolicy, ProvIoConfig, RdfFormat, RetryPolicy, SerializationPolicy};
pub use connector::ProvIoVol;
pub use engine::ProvQueryEngine;
pub use merge::merge_directory;
pub use recover::{recover_all, RecoveryOutcome};
pub use report::{doctor, DoctorReport, RankCrash, RunReport};
pub use scrub::{repairable_paths, scrub_directory, ScrubReport};
pub use store::{BreakerState, ProvenanceStore, StoreStats};
pub use tracker::{IoEvent, ObjectDesc, ProvTracker, TrackSummary, TrackerRegistry};
pub use verify::{
    quarantine_tampered, verify_directory, FileCheck, FileVerdict, VerifyReport,
};
pub use wrapper::PosixWrapper;
