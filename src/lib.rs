//! # PROV-IO — an I/O-centric provenance framework for scientific data on
//! HPC systems (Rust reproduction)
//!
//! This crate is the facade over the full workspace, re-exporting every
//! subsystem of the reproduction of *PROV-IO: An I/O-Centric Provenance
//! Framework for Scientific Data on HPC Systems* (HPDC '22):
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`model`] | `provio-model` | the PROV-IO provenance model (Table 2) |
//! | [`core`] | `provio-core` | tracking, store, merger, user engine |
//! | [`crashcheck`] | `provio-crashcheck` | crash-state explorer + recovery invariants (a test harness) |
//! | [`rdf`] | `provio-rdf` | RDF graph + Turtle/N-Triples (Redland substitute) |
//! | [`sparql`] | `provio-sparql` | SPARQL SELECT subset + property paths |
//! | [`hpcfs`] | `provio-hpcfs` | simulated POSIX/Lustre + syscall interposition |
//! | [`hdf5`] | `provio-hdf5` | simulated HDF5 with a Virtual Object Layer |
//! | [`mpi`] | `provio-mpi` | BSP-style simulated MPI runtime |
//! | [`simrt`] | `provio-simrt` | virtual clocks, cost models, deterministic RNG |
//! | [`provlake`] | `provio-provlake` | the ProvLake comparison baseline |
//! | [`workflows`] | `provio-workflows` | Top Reco, DASSA, H5bench drivers |
//!
//! ## Quickstart
//!
//! Track a process transparently (HDF5 through the stacked VOL connector,
//! POSIX through the syscall wrapper), then merge and query:
//!
//! ```
//! use prov_io::prelude::*;
//!
//! // One simulated machine: Lustre-backed fs + native VOL + PROV-IO stack.
//! let cluster = Cluster::new();
//! let cfg = ProvIoConfig::default().shared();
//! let (session, h5) = cluster.process(7, "alice", "demo", VirtualClock::new(), Some(&cfg));
//!
//! // Plain workflow code — no provenance calls anywhere.
//! let f = h5.create_file("/out.h5").unwrap();
//! let d = h5
//!     .write_dataset_full(f, "x", Datatype::Float64, &[3], &Data::from_f64s(&[1.0, 2.0, 3.0]))
//!     .unwrap();
//! h5.close_dataset(d).unwrap();
//! h5.close_file(f).unwrap();
//! session.write_file("/notes.txt", b"posix side").unwrap();
//!
//! // Finish tracking, merge per-process sub-graphs, query.
//! cluster.registry.finish_all();
//! let (graph, _) = merge_directory(&cluster.fs, "/provio");
//! let engine = ProvQueryEngine::new(graph);
//! let sols = engine
//!     .sparql("SELECT ?d WHERE { ?d a provio:Dataset . }")
//!     .unwrap();
//! assert_eq!(sols.len(), 1);
//! ```

pub use provio as core;
pub use provio_crashcheck as crashcheck;
pub use provio_hdf5 as hdf5;
pub use provio_hpcfs as hpcfs;
pub use provio_model as model;
pub use provio_mpi as mpi;
pub use provio_provlake as provlake;
pub use provio_rdf as rdf;
pub use provio_simrt as simrt;
pub use provio_sparql as sparql;
pub use provio_workflows as workflows;

/// The names most programs need.
pub mod prelude {
    pub use provio::engine::{to_dot, IoStats};
    pub use provio::{
        doctor, merge_directory, quarantine_tampered, recover_all, repairable_paths,
        scrub_directory, verify_directory, BreakerState, Collector, DeliveryReport, DoctorReport,
        FileCheck, FileVerdict, NetClient, NetStats, OverloadPolicy, ProvIoApi, ProvIoConfig,
        ProvIoVol, ProvQueryEngine, ProvenanceStore, RankCrash, RecoveryOutcome, RetryPolicy,
        RunReport, ScrubReport, SerializationPolicy, StoreStats, TrackSummary, TrackerRegistry,
        VerifyReport,
    };
    pub use provio_crashcheck::{
        crashcheck, enumerate_crash_states, reconstruct, CrashState, CrashVariant, CrashcheckConfig,
        CrashcheckReport,
    };
    pub use provio_hdf5::{Data, Dataspace, Datatype, Hyperslab, H5};
    pub use provio_hpcfs::{
        CorruptKind, FaultOp, FaultPlan, FaultRule, FileSystem, FsSession, LustreConfig, OpTrace,
        OpenFlags, TamperKind,
    };
    pub use provio_model::{
        ActivityClass, AgentClass, ClassSelector, EntityClass, ExtensibleClass, Relation,
    };
    pub use provio_mpi::{CommModel, MpiWorld, RankOutcome};
    pub use provio_simrt::{NetPlan, PartitionEpisode, SendFate, SimDuration, VirtualClock};
    pub use provio_sparql::Query;
    pub use provio_workflows::{Cluster, ProvMode};
}
