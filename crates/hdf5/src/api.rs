//! An HDF5-flavoured facade over the VOL.
//!
//! Workflow code holds an [`H5`] bound to one process session and one
//! connector stack, and calls methods named after the C API families
//! (`H5Fcreate` → [`H5::create_file`], `H5Dwrite` → [`H5::write`], …). All
//! calls dispatch through the connector, so a stacked provenance connector
//! observes everything without the workflow changing — the transparency
//! property the paper's evaluation relies on.

use crate::data::Data;
use crate::dataspace::{Dataspace, Hyperslab};
use crate::datatype::Datatype;
use crate::error::H5Result;
use crate::vol::{Create, Handle, ObjectInfo, ObjectKind, VolConnector};
use provio_hpcfs::FsSession;
use std::sync::Arc;

/// A per-process HDF5 library instance.
pub struct H5 {
    vol: Arc<dyn VolConnector>,
    session: Arc<FsSession>,
}

impl H5 {
    /// Bind `session` to a connector stack.
    pub fn new(session: Arc<FsSession>, vol: Arc<dyn VolConnector>) -> Self {
        H5 { vol, session }
    }

    pub fn session(&self) -> &Arc<FsSession> {
        &self.session
    }

    // -- H5F --

    /// H5Fcreate(H5F_ACC_TRUNC).
    pub fn create_file(&self, path: &str) -> H5Result<Handle> {
        self.vol.file_create(&self.session, path, true)
    }

    /// H5Fopen.
    pub fn open_file(&self, path: &str, write: bool) -> H5Result<Handle> {
        self.vol.file_open(&self.session, path, write)
    }

    /// H5Fflush.
    pub fn flush(&self, file: Handle) -> H5Result<()> {
        self.vol.file_flush(&self.session, file)
    }

    /// H5Fclose.
    pub fn close_file(&self, file: Handle) -> H5Result<()> {
        self.vol.close(&self.session, file, ObjectKind::File)
    }

    // -- H5G --

    /// H5Gcreate2.
    pub fn create_group(&self, loc: Handle, name: &str) -> H5Result<Handle> {
        self.vol.create(&self.session, loc, name, Create::Group)
    }

    /// H5Gclose.
    pub fn close_group(&self, group: Handle) -> H5Result<()> {
        self.vol.close(&self.session, group, ObjectKind::Group)
    }

    // -- H5D --

    /// H5Dcreate2.
    pub fn create_dataset(
        &self,
        loc: Handle,
        name: &str,
        dtype: Datatype,
        space: Dataspace,
    ) -> H5Result<Handle> {
        self.vol.create(&self.session, loc, name, Create::Dataset { dtype, space })
    }

    /// H5Dopen2.
    pub fn open_dataset(&self, loc: Handle, name: &str) -> H5Result<Handle> {
        self.vol.open(&self.session, loc, name, ObjectKind::Dataset)
    }

    /// H5Dset_extent.
    pub fn extend_dataset(&self, dset: Handle, new_dims: &[u64]) -> H5Result<()> {
        self.vol.dataset_extend(&self.session, dset, new_dims)
    }

    /// H5Dwrite over a hyperslab selection.
    pub fn write(&self, dset: Handle, sel: &Hyperslab, data: &Data) -> H5Result<()> {
        self.vol.dataset_write(&self.session, dset, sel, data)
    }

    /// H5Dread over a hyperslab selection.
    pub fn read(&self, dset: Handle, sel: &Hyperslab) -> H5Result<Data> {
        self.vol.dataset_read(&self.session, dset, sel)
    }

    /// H5Dclose.
    pub fn close_dataset(&self, dset: Handle) -> H5Result<()> {
        self.vol.close(&self.session, dset, ObjectKind::Dataset)
    }

    // -- H5A --

    /// H5Acreate2 + H5Awrite in one step (the common pattern).
    pub fn create_attr(
        &self,
        loc: Handle,
        name: &str,
        dtype: Datatype,
        value: &[u8],
    ) -> H5Result<Handle> {
        self.vol.create(&self.session, loc, name, Create::Attribute { dtype, value })
    }

    /// H5Aopen.
    pub fn open_attr(&self, loc: Handle, name: &str) -> H5Result<Handle> {
        self.vol.open(&self.session, loc, name, ObjectKind::Attribute)
    }

    /// H5Aread.
    pub fn read_attr(&self, attr: Handle) -> H5Result<Vec<u8>> {
        self.vol.attr_read(&self.session, attr)
    }

    /// H5Aclose.
    pub fn close_attr(&self, attr: Handle) -> H5Result<()> {
        self.vol.close(&self.session, attr, ObjectKind::Attribute)
    }

    // -- H5T --

    /// H5Tcommit2.
    pub fn commit_datatype(&self, loc: Handle, name: &str, dtype: Datatype) -> H5Result<Handle> {
        self.vol.create(&self.session, loc, name, Create::NamedDatatype { dtype })
    }

    // -- H5L --

    /// H5Lcreate_soft.
    pub fn create_soft_link(&self, loc: Handle, target: &str, name: &str) -> H5Result<()> {
        self.vol.link_create_soft(&self.session, loc, target, name)
    }

    /// H5Ldelete.
    pub fn delete_link(&self, loc: Handle, name: &str) -> H5Result<()> {
        self.vol.link_delete(&self.session, loc, name)
    }

    // -- H5O --

    /// H5Oget_info-style introspection.
    pub fn object_info(&self, handle: Handle) -> H5Result<ObjectInfo> {
        self.vol.object_info(handle)
    }

    /// Convenience: write a full (small) dataset in one call.
    pub fn write_dataset_full(
        &self,
        loc: Handle,
        name: &str,
        dtype: Datatype,
        dims: &[u64],
        data: &Data,
    ) -> H5Result<Handle> {
        let space = Dataspace::fixed(dims);
        let sel = Hyperslab::all(&space);
        let d = self.create_dataset(loc, name, dtype, space)?;
        self.write(d, &sel, data)?;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeVol;
    use provio_hpcfs::{Dispatcher, FileSystem, LustreConfig};
    use provio_simrt::VirtualClock;

    fn h5() -> H5 {
        let fs = FileSystem::new(LustreConfig::default());
        let vol = Arc::new(NativeVol::new(Arc::clone(&fs)));
        let s = Arc::new(FsSession::new(
            fs,
            1,
            "bob",
            "quickcheck",
            VirtualClock::new(),
            Dispatcher::new(),
        ));
        H5::new(s, vol)
    }

    #[test]
    fn facade_full_round_trip() {
        let h = h5();
        let f = h.create_file("/t.h5").unwrap();
        let g = h.create_group(f, "Timestep_0").unwrap();
        let d = h
            .write_dataset_full(
                g,
                "x",
                Datatype::Float64,
                &[3],
                &Data::from_f64s(&[1.0, 2.0, 3.0]),
            )
            .unwrap();
        h.create_attr(d, "units", Datatype::FixedString(8), b"cm")
            .unwrap();
        h.flush(f).unwrap();
        h.close_dataset(d).unwrap();
        h.close_group(g).unwrap();
        h.close_file(f).unwrap();

        let f = h.open_file("/t.h5", false).unwrap();
        let d = h.open_dataset(f, "Timestep_0/x").unwrap();
        let space = Dataspace::fixed(&[3]);
        let got = h.read(d, &Hyperslab::all(&space)).unwrap();
        assert_eq!(got.to_f64s().unwrap(), vec![1.0, 2.0, 3.0]);
        let a = h.open_attr(d, "units").unwrap();
        assert_eq!(h.read_attr(a).unwrap(), b"cm");
        h.close_attr(a).unwrap();
        assert!(h.close_attr(a).is_err(), "closed once");
    }

    #[test]
    fn facade_links_and_types() {
        let h = h5();
        let f = h.create_file("/t.h5").unwrap();
        let c = Datatype::Compound(vec![("a".into(), Datatype::Int32)]);
        h.commit_datatype(f, "rec", c).unwrap();
        h.create_soft_link(f, "/rec", "rec_alias").unwrap();
        let (vol, s, kind) = (&h.vol, &h.session, ObjectKind::NamedDatatype);
        let t = vol.open(s, f, "rec_alias", kind).unwrap();
        assert_eq!(h.object_info(t).unwrap().object_path, "/rec");
        vol.close(s, t, kind).unwrap();
        h.delete_link(f, "rec_alias").unwrap();
        assert!(vol.open(s, f, "rec_alias", kind).is_err());
        assert!(vol.open(s, f, "rec", kind).is_ok());
    }
}
