//! `provio-hdf5` — a simulated HDF5 library with a Virtual Object Layer.
//!
//! PROV-IO's HDF5 support hangs off one structural property of the real
//! library: HDF5's Virtual Object Layer (VOL) intercepts object-level API
//! operations and dispatches them to stackable connectors, each native API
//! having a homomorphic counterpart (paper §2.2, §5). This crate rebuilds
//! that property over the `provio-hpcfs` substrate:
//!
//! * A full object model — files, groups, datasets with extensible
//!   [`Dataspace`]s and [`Datatype`]s, attributes on any object, committed
//!   named datatypes, soft links — addressed by slash paths inside a file.
//! * [`vol::VolConnector`] — the homomorphic dispatch trait. The terminal
//!   connector is [`native::NativeVol`], which executes operations against
//!   shared in-memory file state and performs the corresponding byte I/O
//!   through the calling process's [`provio_hpcfs::FsSession`] (so Lustre
//!   cost and syscall events happen exactly where a real VFD would issue
//!   them). Connectors stack: PROV-IO's provenance connector (in
//!   `provio-core`) wraps any inner connector and forwards every call. The
//!   caller picks the connector when it builds a process's [`api::H5`],
//!   standing in for `HDF5_VOL_CONNECTOR` dynamic loading.
//! * [`api::H5`] — an HDF5-flavoured convenience facade (`create_file`,
//!   `create_dataset`, `write`, `attr`, …) used by the workflows.
//!
//! Payloads use [`Data`]: small metadata (attributes, headers) is real
//! bytes; bulk scientific data may be `Synthetic`, which flows through the
//! same code paths and cost model without materializing terabytes.

pub mod api;
pub mod data;
pub mod dataspace;
pub mod datatype;
pub mod error;
pub mod native;
pub mod vol;

pub use api::H5;
pub use data::Data;
pub use dataspace::{Dataspace, Hyperslab};
pub use datatype::Datatype;
pub use error::{H5Error, H5Result};
pub use native::NativeVol;
pub use vol::{Handle, ObjectInfo, ObjectKind, VolConnector};
