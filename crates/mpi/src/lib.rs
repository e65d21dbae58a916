//! `provio-mpi` — a BSP-style simulated MPI runtime.
//!
//! The paper's H5bench workloads run on up to 4096 MPI ranks (§6.1). This
//! runtime reproduces the execution structure that matters to the
//! evaluation — data-parallel ranks with their own clocks, synchronized at
//! collectives — while multiplexing any number of *virtual* ranks over the
//! host's cores with rayon:
//!
//! * [`MpiWorld::superstep`] runs a closure once per rank, in parallel, and
//!   ends with an implicit barrier: all rank clocks advance to the slowest
//!   rank's time, exactly how wall-clock behaves at `MPI_Barrier`.
//! * [`MpiWorld::barrier`] synchronizes between supersteps and charges a
//!   log₂(P) tree cost; [`CommModel::send`] / [`CommModel::recv`] price the
//!   point-to-point messages of the streaming collection layer.
//! * A panic in one rank's closure (e.g. an injected `ESIMCRASH`) is
//!   contained: that rank reports [`RankOutcome::Crashed`] while the
//!   survivors run to the barrier, so a run can lose ranks without losing
//!   the run.
//!
//! This phased (bulk-synchronous) model is a substitution for full
//! message-passing (DESIGN.md §3): the three evaluated workflows are
//! barrier-synchronized I/O kernels and file-parallel pipelines with no
//! point-to-point dependencies inside a phase.
#![warn(unreachable_pub)]

pub(crate) mod collectives;
pub(crate) mod world;

pub use collectives::CommModel;
pub use world::{MpiWorld, RankCtx, RankOutcome};
