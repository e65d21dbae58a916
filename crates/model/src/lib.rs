//! `provio-model` — the PROV-IO provenance model (paper §4.1, Table 2).
//!
//! PROV-IO enriches the W3C PROV data model with concrete sub-classes for
//! HPC I/O. This crate is the model itself, independent of capture or
//! storage:
//!
//! * Five super-classes: [`EntityClass`] (*Data Object* sub-classes:
//!   Directory, File, Group, Dataset, Attribute, Datatype, Link),
//!   [`ActivityClass`] (*I/O API* sub-classes: Create, Open, Read, Write,
//!   Fsync, Rename), [`AgentClass`] (User, Thread, Program),
//!   [`ExtensibleClass`] (Type, Configuration, Metrics) and [`Relation`]
//!   (the inherited W3C relations plus `provio:wasCreatedBy`,
//!   `provio:wasReadBy`, `provio:wasWrittenBy`, …).
//! * [`Guid`] — globally unique node identities. Data objects and agents
//!   are *content-addressed* (same file ⇒ same GUID in every process) so
//!   merging per-process sub-graphs never duplicates nodes (paper §5);
//!   activities are unique per invocation.
//! * [`ontology`] — the PROV-O-style mapping of records to RDF triples,
//!   and the id-level lookups a reader of the graph shares.
//! * [`ClassSelector`] — the user-engine knob that enables/disables
//!   individual sub-classes, with the paper's Table 3 presets.
#![warn(unreachable_pub)]

pub(crate) mod class;
pub(crate) mod guid;
pub(crate) mod node;
pub mod ontology;
pub(crate) mod relation;
pub(crate) mod selector;

pub use class::{ActivityClass, AgentClass, EntityClass, ExtensibleClass, NodeClass};
pub use guid::{content_hash, Guid, GuidGen};
pub use node::{ProvNode, ProvRecord, PropKey, PropValue};
pub use ontology::{record_to_triples, Vocabulary};
pub use relation::Relation;
pub use selector::{ClassSelector, TrackItem};
