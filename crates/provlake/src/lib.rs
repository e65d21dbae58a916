//! `provio-provlake` — a process-oriented provenance baseline modeled on
//! IBM ProvLake, the system PROV-IO is compared against in §6.4.
//!
//! The paper characterizes ProvLake as *process-oriented*: "ProvLake creates
//! records based on the execution steps of a workflow, and the provenance
//! data are maintained as attribute or property of individual steps", and
//! observes that "ProvLake has to track more irrelevant workflow information
//! not needed in the use case". This baseline reproduces exactly those
//! structural properties:
//!
//! * capture is **per execution step** (workflow → tasks → cycles), driven
//!   by explicit API instrumentation — there is no transparent I/O capture
//!   and no sub-class selector;
//! * every step record carries its full context (workflow identity, the
//!   complete configuration attribute set, step metadata), so stored bytes
//!   grow with *steps × context*, not with the information actually asked
//!   for;
//! * records persist as JSON-lines on the parallel file system (standing in
//!   for ProvLake's HTTP push to a collector service).
//!
//! Like the PROV-IO tracker, an API call costs the workflow's virtual clock
//! a modeled latency and nothing else ([`tracker::PUSH_LATENCY_NS`] per
//! collector round trip against PROV-IO's `record_latency_ns` per record),
//! so Figure 8's head-to-head comparison is a function of the two models
//! and the workload, not of the host.

pub mod characteristics;
pub mod tracker;

pub use characteristics::{framework_characteristics, FrameworkInfo, Transparency};
pub use tracker::{ProvLakeTracker, TaskHandle};
