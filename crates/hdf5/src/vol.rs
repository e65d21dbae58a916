//! The Virtual Object Layer: homomorphic dispatch and connector stacking.
//!
//! Every object-level call of the [`crate::H5`] facade is exactly one
//! [`VolConnector`] call, so a stacked connector can intercept each of
//! them (the "homomorphic design" of the VOL-provenance connector the
//! paper builds on, §5). Create, open and close take the object's kind as
//! an argument ([`Create`], [`ObjectKind`]), so a connector writes each
//! step of an object's life once. A connector either terminates the
//! stack (the native connector executes against storage) or wraps another
//! connector, observing and forwarding. Which connector a process gets is
//! decided where the process is set up, not by a lookup by name.

use crate::data::Data;
use crate::dataspace::{Dataspace, Hyperslab};
use crate::datatype::Datatype;
use crate::error::H5Result;
use provio_hpcfs::FsSession;

/// An opaque handle to an open file/group/dataset/attribute/datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(pub u64);

/// What an open handle refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    File,
    Group,
    Dataset,
    Attribute,
    NamedDatatype,
}

impl ObjectKind {
    pub fn name(self) -> &'static str {
        match self {
            ObjectKind::File => "file",
            ObjectKind::Group => "group",
            ObjectKind::Dataset => "dataset",
            ObjectKind::Attribute => "attribute",
            ObjectKind::NamedDatatype => "datatype",
        }
    }
}

/// Introspection record for an open handle — what a stacked connector needs
/// to name the object in provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectInfo {
    /// Path of the containing file on the file system.
    pub file_path: String,
    /// Slash path of the object within the file ("/" for the file itself;
    /// attributes use `parent_path#attr_name`).
    pub object_path: String,
    pub kind: ObjectKind,
    /// Current dims for datasets.
    pub dims: Option<Vec<u64>>,
    /// Element datatype for datasets/attributes/named datatypes.
    pub(crate) datatype: Option<Datatype>,
}

/// What [`VolConnector::create`] makes, with what that kind needs.
#[derive(Debug, Clone)]
pub enum Create<'a> {
    /// H5Gcreate2.
    Group,
    /// H5Dcreate2.
    Dataset { dtype: Datatype, space: Dataspace },
    /// H5Acreate2 + H5Awrite: an attribute on `loc` itself, not a link.
    Attribute { dtype: Datatype, value: &'a [u8] },
    /// H5Tcommit2.
    NamedDatatype { dtype: Datatype },
}

impl Create<'_> {
    pub fn kind(&self) -> ObjectKind {
        match self {
            Create::Group => ObjectKind::Group,
            Create::Dataset { .. } => ObjectKind::Dataset,
            Create::Attribute { .. } => ObjectKind::Attribute,
            Create::NamedDatatype { .. } => ObjectKind::NamedDatatype,
        }
    }
}

/// The homomorphic VOL dispatch trait.
///
/// All methods take the calling process's [`FsSession`] so the terminal
/// connector performs its byte I/O — and charges its modeled cost — on
/// behalf of the right process, and so stacked connectors can charge their
/// own modeled overhead to the same process. An object's create, open and
/// close are one method each, told the kind: a connector implements an
/// object's life once, not once per kind.
pub trait VolConnector: Send + Sync {
    /// Connector name (what the registry binds).
    fn name(&self) -> &str;

    // -- file --
    fn file_create(&self, s: &FsSession, path: &str, truncate: bool) -> H5Result<Handle>;
    fn file_open(&self, s: &FsSession, path: &str, write: bool) -> H5Result<Handle>;
    fn file_flush(&self, s: &FsSession, file: Handle) -> H5Result<()>;

    // -- any object --
    /// Create `name` under `loc` (an attribute: on `loc`).
    fn create(&self, s: &FsSession, loc: Handle, name: &str, what: Create) -> H5Result<Handle>;
    /// Open the object of `kind` at `name` under `loc`. Files open by path,
    /// through [`Self::file_open`].
    fn open(&self, s: &FsSession, loc: Handle, name: &str, kind: ObjectKind) -> H5Result<Handle>;
    /// Close `handle`, which must be open as `kind`; a refused close leaves
    /// it open.
    fn close(&self, s: &FsSession, handle: Handle, kind: ObjectKind) -> H5Result<()>;

    // -- dataset --
    fn dataset_extend(&self, s: &FsSession, dset: Handle, new_dims: &[u64]) -> H5Result<()>;
    fn dataset_write(
        &self,
        s: &FsSession,
        dset: Handle,
        sel: &Hyperslab,
        data: &Data,
    ) -> H5Result<()>;
    fn dataset_read(&self, s: &FsSession, dset: Handle, sel: &Hyperslab) -> H5Result<Data>;

    // -- attribute --
    fn attr_read(&self, s: &FsSession, attr: Handle) -> H5Result<Vec<u8>>;

    // -- links --
    fn link_create_soft(
        &self,
        s: &FsSession,
        loc: Handle,
        target: &str,
        name: &str,
    ) -> H5Result<()>;
    fn link_delete(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<()>;

    // -- introspection --
    fn object_info(&self, handle: Handle) -> H5Result<ObjectInfo>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_kind_names() {
        assert_eq!(ObjectKind::Dataset.name(), "dataset");
        assert_eq!(ObjectKind::NamedDatatype.name(), "datatype");
    }
}
