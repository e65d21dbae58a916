//! The Virtual Object Layer: homomorphic dispatch and connector stacking.
//!
//! Every object-level API the library exposes has a counterpart method on
//! [`VolConnector`] (the "homomorphic design" of the VOL-provenance
//! connector the paper builds on, §5). A connector either terminates the
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
    pub datatype: Option<Datatype>,
}

/// The homomorphic VOL dispatch trait.
///
/// All methods take the calling process's [`FsSession`] so the terminal
/// connector performs its byte I/O — and charges its modeled cost — on
/// behalf of the right process, and so stacked connectors can charge their
/// own modeled overhead to the same process.
pub trait VolConnector: Send + Sync {
    /// Connector name (what the registry binds).
    fn name(&self) -> &str;

    // -- file --
    fn file_create(&self, s: &FsSession, path: &str, truncate: bool) -> H5Result<Handle>;
    fn file_open(&self, s: &FsSession, path: &str, write: bool) -> H5Result<Handle>;
    fn file_flush(&self, s: &FsSession, file: Handle) -> H5Result<()>;
    fn file_close(&self, s: &FsSession, file: Handle) -> H5Result<()>;

    // -- group --
    fn group_create(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<Handle>;
    fn group_open(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<Handle>;
    fn group_close(&self, s: &FsSession, group: Handle) -> H5Result<()>;

    // -- dataset --
    fn dataset_create(
        &self,
        s: &FsSession,
        loc: Handle,
        name: &str,
        dtype: Datatype,
        space: Dataspace,
    ) -> H5Result<Handle>;
    fn dataset_open(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<Handle>;
    fn dataset_extend(&self, s: &FsSession, dset: Handle, new_dims: &[u64]) -> H5Result<()>;
    fn dataset_write(
        &self,
        s: &FsSession,
        dset: Handle,
        sel: &Hyperslab,
        data: &Data,
    ) -> H5Result<()>;
    fn dataset_read(&self, s: &FsSession, dset: Handle, sel: &Hyperslab) -> H5Result<Data>;
    fn dataset_close(&self, s: &FsSession, dset: Handle) -> H5Result<()>;

    // -- attribute --
    fn attr_create(
        &self,
        s: &FsSession,
        loc: Handle,
        name: &str,
        dtype: Datatype,
        value: &[u8],
    ) -> H5Result<Handle>;
    fn attr_open(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<Handle>;
    fn attr_read(&self, s: &FsSession, attr: Handle) -> H5Result<Vec<u8>>;
    fn attr_write(&self, s: &FsSession, attr: Handle, value: &[u8]) -> H5Result<()>;
    fn attr_close(&self, s: &FsSession, attr: Handle) -> H5Result<()>;
    fn attr_list(&self, s: &FsSession, loc: Handle) -> H5Result<Vec<String>>;

    // -- named datatype --
    fn datatype_commit(
        &self,
        s: &FsSession,
        loc: Handle,
        name: &str,
        dtype: Datatype,
    ) -> H5Result<Handle>;
    fn datatype_open(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<Handle>;
    fn datatype_close(&self, s: &FsSession, dtype: Handle) -> H5Result<()>;

    // -- links --
    fn link_create_soft(
        &self,
        s: &FsSession,
        loc: Handle,
        target: &str,
        name: &str,
    ) -> H5Result<()>;
    fn link_delete(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<()>;
    fn link_exists(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<bool>;
    fn link_list(&self, s: &FsSession, loc: Handle) -> H5Result<Vec<String>>;

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
