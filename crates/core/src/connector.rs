//! The PROV-IO Lib Connector: a stacked HDF5 VOL connector.
//!
//! Follows the homomorphic design of the VOL-provenance connector the paper
//! builds on (§5): every native API has a counterpart here that (1)
//! forwards to the inner connector, (2) measures the native call's modeled
//! duration off the calling process's virtual clock, and (3) hands the
//! event to that process's [`crate::ProvTracker`]. A locked live-object table maps
//! open handles to their identities — the analog of the paper's "linked
//! list with locking support to achieve concurrency control on I/O
//! operations on the same data object".

use crate::tracker::{IoEvent, ObjectDesc, TrackerRegistry};
use parking_lot::Mutex;
use provio_hdf5::{Create, Data, H5Result, Handle, Hyperslab, ObjectInfo, ObjectKind, VolConnector};
use provio_hpcfs::FsSession;
use provio_model::{ActivityClass, EntityClass};
use std::collections::HashMap;
use std::sync::Arc;

/// The stacked provenance connector.
pub struct ProvIoVol {
    inner: Arc<dyn VolConnector>,
    registry: Arc<TrackerRegistry>,
    /// Handle → object identity, shared by all processes using this stack
    /// (handles are minted by the shared inner connector): what names the
    /// object in provenance without re-querying the inner connector.
    live: Mutex<HashMap<Handle, ObjectDesc>>,
}

impl ProvIoVol {
    pub fn new(inner: Arc<dyn VolConnector>, registry: Arc<TrackerRegistry>) -> Arc<Self> {
        Arc::new(ProvIoVol {
            inner,
            registry,
            live: Mutex::new(HashMap::new()),
        })
    }

    fn entity_class(kind: ObjectKind) -> EntityClass {
        match kind {
            ObjectKind::File => EntityClass::File,
            ObjectKind::Group => EntityClass::Group,
            ObjectKind::Dataset => EntityClass::Dataset,
            ObjectKind::Attribute => EntityClass::Attribute,
            ObjectKind::NamedDatatype => EntityClass::Datatype,
        }
    }

    fn desc_from_info(info: &ObjectInfo) -> ObjectDesc {
        if info.kind == ObjectKind::File {
            ObjectDesc::posix(EntityClass::File, info.file_path.clone())
        } else {
            ObjectDesc::hdf5(
                Self::entity_class(info.kind),
                info.file_path.clone(),
                info.object_path.clone(),
            )
        }
    }

    /// Remember a freshly created/opened handle's identity.
    fn remember(&self, handle: Handle) {
        if let Ok(info) = self.inner.object_info(handle) {
            self.live.lock().insert(handle, Self::desc_from_info(&info));
        }
    }

    fn lookup(&self, handle: Handle) -> Option<ObjectDesc> {
        self.live.lock().get(&handle).cloned()
    }

    /// Record one event for the calling process.
    #[allow(clippy::too_many_arguments)]
    fn track(
        &self,
        s: &FsSession,
        activity: ActivityClass,
        api: &str,
        object: Option<ObjectDesc>,
        bytes: u64,
        duration_ns: u64,
        ok: bool,
    ) {
        if let Some(tracker) = self.registry.get(s.pid()) {
            tracker.track_io(&IoEvent {
                activity,
                api_name: api.to_string(),
                object,
                bytes,
                duration_ns,
                timestamp_ns: s.clock().now().as_nanos(),
                ok,
            });
        }
    }

    /// Run the native call, measuring its modeled duration.
    fn timed<T>(
        &self,
        s: &FsSession,
        f: impl FnOnce(&Arc<dyn VolConnector>) -> H5Result<T>,
    ) -> (H5Result<T>, u64) {
        let before = s.clock().now();
        let result = f(&self.inner);
        let duration = s.clock().now().elapsed_since(before).as_nanos();
        (result, duration)
    }

    /// A call that mints a handle: time it, remember the new handle's
    /// identity, track the event. `named` is the object when the call
    /// itself names it (a file, by its path — known even when the call
    /// fails); every other object is named by what was remembered.
    fn opened(
        &self,
        s: &FsSession,
        activity: ActivityClass,
        api: &str,
        named: Option<ObjectDesc>,
        bytes: u64,
        f: impl FnOnce(&Arc<dyn VolConnector>) -> H5Result<Handle>,
    ) -> H5Result<Handle> {
        let (result, dur) = self.timed(s, f);
        if let Ok(h) = &result {
            self.remember(*h);
        }
        let obj = named.or_else(|| result.as_ref().ok().and_then(|h| self.lookup(*h)));
        self.track(s, activity, api, obj, bytes, dur, result.is_ok());
        result
    }

    /// A call on an open handle: name the object, time the call, track the
    /// event with the byte count `bytes` reads off the result.
    fn on_handle<T>(
        &self,
        s: &FsSession,
        activity: ActivityClass,
        api: &str,
        handle: Handle,
        bytes: impl FnOnce(&H5Result<T>) -> u64,
        f: impl FnOnce(&Arc<dyn VolConnector>) -> H5Result<T>,
    ) -> H5Result<T> {
        let obj = self.lookup(handle);
        let (result, dur) = self.timed(s, f);
        self.track(s, activity, api, obj, bytes(&result), dur, result.is_ok());
        result
    }

    /// The link `name` under `loc`, named inside the containing file if
    /// that is known.
    fn link_object(&self, loc: Handle, name: &str) -> Option<ObjectDesc> {
        self.lookup(loc).map(|d| {
            let file = if d.scope.is_empty() { d.path } else { d.scope };
            ObjectDesc::hdf5(EntityClass::Link, file, format!("/{name}"))
        })
    }
}

impl VolConnector for ProvIoVol {
    fn name(&self) -> &str {
        "provio"
    }

    fn file_create(&self, s: &FsSession, path: &str, truncate: bool) -> H5Result<Handle> {
        let file = Some(ObjectDesc::posix(EntityClass::File, path));
        self.opened(s, ActivityClass::Create, "H5Fcreate", file, 0, |v| {
            v.file_create(s, path, truncate)
        })
    }

    fn file_open(&self, s: &FsSession, path: &str, write: bool) -> H5Result<Handle> {
        let file = Some(ObjectDesc::posix(EntityClass::File, path));
        self.opened(s, ActivityClass::Open, "H5Fopen", file, 0, |v| v.file_open(s, path, write))
    }

    fn file_flush(&self, s: &FsSession, file: Handle) -> H5Result<()> {
        self.on_handle(s, ActivityClass::Fsync, "H5Fflush", file, |_| 0, |v| v.file_flush(s, file))
    }

    fn create(&self, s: &FsSession, loc: Handle, name: &str, what: Create) -> H5Result<Handle> {
        let (api, bytes) = match &what {
            Create::Group => ("H5Gcreate2", 0),
            Create::Dataset { .. } => ("H5Dcreate2", 0),
            Create::Attribute { value, .. } => ("H5Acreate2", value.len() as u64),
            Create::NamedDatatype { .. } => ("H5Tcommit2", 0),
        };
        self.opened(s, ActivityClass::Create, api, None, bytes, |v| v.create(s, loc, name, what))
    }

    fn open(&self, s: &FsSession, loc: Handle, name: &str, kind: ObjectKind) -> H5Result<Handle> {
        let api = match kind {
            ObjectKind::File => "H5Fopen",
            ObjectKind::Group => "H5Gopen2",
            ObjectKind::Dataset => "H5Dopen2",
            ObjectKind::Attribute => "H5Aopen",
            ObjectKind::NamedDatatype => "H5Topen2",
        };
        self.opened(s, ActivityClass::Open, api, None, 0, |v| v.open(s, loc, name, kind))
    }

    /// Close is not one of the model's six I/O API classes, so nothing is
    /// tracked (paper Table 2); a completed close leaves the live table.
    fn close(&self, s: &FsSession, handle: Handle, kind: ObjectKind) -> H5Result<()> {
        let result = self.inner.close(s, handle, kind);
        if result.is_ok() {
            self.live.lock().remove(&handle);
        }
        result
    }

    fn dataset_extend(&self, s: &FsSession, dset: Handle, new_dims: &[u64]) -> H5Result<()> {
        self.on_handle(s, ActivityClass::Write, "H5Dset_extent", dset, |_| 0, |v| {
            v.dataset_extend(s, dset, new_dims)
        })
    }

    fn dataset_write(
        &self,
        s: &FsSession,
        dset: Handle,
        sel: &Hyperslab,
        data: &Data,
    ) -> H5Result<()> {
        self.on_handle(s, ActivityClass::Write, "H5Dwrite", dset, |_| data.len(), |v| {
            v.dataset_write(s, dset, sel, data)
        })
    }

    fn dataset_read(&self, s: &FsSession, dset: Handle, sel: &Hyperslab) -> H5Result<Data> {
        let read = |r: &H5Result<Data>| r.as_ref().map_or(0, Data::len);
        self.on_handle(s, ActivityClass::Read, "H5Dread", dset, read, |v| {
            v.dataset_read(s, dset, sel)
        })
    }

    fn attr_read(&self, s: &FsSession, attr: Handle) -> H5Result<Vec<u8>> {
        let read = |r: &H5Result<Vec<u8>>| r.as_ref().map_or(0, |v| v.len() as u64);
        self.on_handle(s, ActivityClass::Read, "H5Aread", attr, read, |v| v.attr_read(s, attr))
    }

    fn link_create_soft(
        &self,
        s: &FsSession,
        loc: Handle,
        target: &str,
        name: &str,
    ) -> H5Result<()> {
        let (result, dur) = self.timed(s, |v| v.link_create_soft(s, loc, target, name));
        let obj = self.link_object(loc, name);
        self.track(s, ActivityClass::Create, "H5Lcreate_soft", obj, 0, dur, result.is_ok());
        result
    }

    fn link_delete(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<()> {
        let (result, dur) = self.timed(s, |v| v.link_delete(s, loc, name));
        let obj = self.link_object(loc, name);
        self.track(s, ActivityClass::Rename, "H5Ldelete", obj, 0, dur, result.is_ok());
        result
    }

    fn object_info(&self, handle: Handle) -> H5Result<ObjectInfo> {
        self.inner.object_info(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProvIoConfig;
    use crate::tracker::ProvTracker;
    use provio_hdf5::{NativeVol, H5};
    use provio_hpcfs::{Dispatcher, FileSystem, LustreConfig};
    use provio_model::ontology::nodes_of_class;
    use provio_rdf::turtle;
    use provio_simrt::VirtualClock;

    struct Rig {
        fs: Arc<FileSystem>,
        h5: H5,
        tracker: Arc<ProvTracker>,
    }

    fn rig() -> Rig {
        let fs = FileSystem::new(LustreConfig::default());
        let native: Arc<dyn VolConnector> = Arc::new(NativeVol::new(Arc::clone(&fs)));
        let registry = TrackerRegistry::new();
        let clock = VirtualClock::new();
        let tracker = ProvTracker::new(
            ProvIoConfig::default().shared(),
            Arc::clone(&fs),
            42,
            "Bob",
            "vpicio_uni_h5",
            clock.clone(),
        );
        registry.register(42, Arc::clone(&tracker));
        let vol = ProvIoVol::new(native, registry);
        let session = Arc::new(FsSession::new(
            Arc::clone(&fs),
            42,
            "Bob",
            "vpicio_uni_h5",
            clock,
            Dispatcher::new(),
        ));
        Rig {
            fs,
            h5: H5::new(session, vol),
            tracker,
        }
    }

    fn graph_of(rig: &Rig) -> provio_rdf::Graph {
        let summary = rig.tracker.finish();
        let ino = rig.fs.lookup(&summary.store_path).unwrap();
        let size = rig.fs.stat(&summary.store_path).unwrap().size;
        let text =
            String::from_utf8(rig.fs.read_at(ino, 0, size).unwrap().to_vec()).unwrap();
        turtle::parse(&text).unwrap().0
    }

    #[test]
    fn transparent_capture_of_h5_workflow() {
        let r = rig();
        let f = r.h5.create_file("/out.h5").unwrap();
        let g = r.h5.create_group(f, "Timestep_0").unwrap();
        let d = r
            .h5
            .write_dataset_full(
                g,
                "x",
                provio_hdf5::Datatype::Float64,
                &[8],
                &Data::from_f64s(&[0.0; 8]),
            )
            .unwrap();
        r.h5.create_attr(d, "units", provio_hdf5::Datatype::VarString, b"m")
            .unwrap();
        let back = r.h5.read(d, &Hyperslab::new(&[0], &[8])).unwrap();
        assert_eq!(back.len(), 64);
        r.h5.close_dataset(d).unwrap();
        r.h5.close_group(g).unwrap();
        r.h5.close_file(f).unwrap();

        assert!(r.tracker.event_count() >= 5);
        let graph = graph_of(&r);
        use provio_model::{ActivityClass as A, EntityClass as E};
        assert_eq!(nodes_of_class(&graph, E::File.into()).len(), 1);
        assert_eq!(nodes_of_class(&graph, E::Group.into()).len(), 1);
        assert_eq!(nodes_of_class(&graph, E::Dataset.into()).len(), 1);
        assert_eq!(nodes_of_class(&graph, E::Attribute.into()).len(), 1);
        assert!(!nodes_of_class(&graph, A::Create.into()).is_empty());
        assert!(!nodes_of_class(&graph, A::Write.into()).is_empty());
        assert!(!nodes_of_class(&graph, A::Read.into()).is_empty());
    }

    #[test]
    fn native_semantics_preserved_under_stacking() {
        // The same operations must produce identical data with and without
        // the provenance connector.
        let r = rig();
        let f = r.h5.create_file("/same.h5").unwrap();
        let d = r
            .h5
            .write_dataset_full(
                f,
                "v",
                provio_hdf5::Datatype::Float64,
                &[4],
                &Data::from_f64s(&[1.0, 2.0, 3.0, 4.0]),
            )
            .unwrap();
        let got = r.h5.read(d, &Hyperslab::new(&[1], &[2])).unwrap();
        assert_eq!(got.to_f64s().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn flush_tracked_as_fsync_class() {
        let r = rig();
        let f = r.h5.create_file("/flush.h5").unwrap();
        r.h5.flush(f).unwrap();
        let graph = graph_of(&r);
        let fsyncs = nodes_of_class(&graph, provio_model::ActivityClass::Fsync.into());
        assert_eq!(fsyncs.len(), 1);
    }

    #[test]
    fn untracked_process_passes_through() {
        // A session whose pid has no registered tracker gets native
        // behavior, no provenance, no errors.
        let fs = FileSystem::new(LustreConfig::default());
        let native: Arc<dyn VolConnector> = Arc::new(NativeVol::new(Arc::clone(&fs)));
        let vol = ProvIoVol::new(native, TrackerRegistry::new());
        let session = Arc::new(FsSession::new(
            Arc::clone(&fs),
            7,
            "Eve",
            "untracked",
            VirtualClock::new(),
            Dispatcher::new(),
        ));
        let h5 = H5::new(session, vol);
        let f = h5.create_file("/quiet.h5").unwrap();
        h5.close_file(f).unwrap();
        assert!(fs.walk_files("/provio").is_err(), "no store dir created");
    }

    #[test]
    fn failed_native_calls_tracked_as_failures_not_events() {
        let r = rig();
        assert!(r.h5.open_file("/missing.h5", false).is_err());
        // Failed events are dropped by the tracker.
        assert_eq!(r.tracker.event_count(), 0);
    }

    #[test]
    fn live_table_survives_concurrent_use() {
        let r = rig();
        let f = r.h5.create_file("/conc.h5").unwrap();
        let handles: Vec<Handle> = (0..16)
            .map(|i| {
                r.h5.write_dataset_full(
                    f,
                    &format!("d{i}"),
                    provio_hdf5::Datatype::Int64,
                    &[4],
                    &Data::synthetic(32),
                )
                .unwrap()
            })
            .collect();
        for h in handles {
            r.h5.close_dataset(h).unwrap();
        }
        let graph = graph_of(&r);
        assert_eq!(
            nodes_of_class(&graph, provio_model::EntityClass::Dataset.into()).len(),
            16
        );
    }
}
