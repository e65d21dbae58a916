//! The PROV-IO Syscall Wrapper: POSIX capture via interposition.
//!
//! Registered as a [`SyscallHook`] on the file-system dispatcher (the
//! GOTCHA stand-in), so POSIX-level workflows (Top Reco, DASSA's `.tdms`
//! side) are tracked without source changes. The wrapper maps syscalls to
//! the model's six `<<I/O API>>` classes and names the touched data object
//! (File / Directory / Link / inode-xattr Attribute).

use crate::tracker::{IoEvent, ObjectDesc, TrackerRegistry};
use provio_hpcfs::{SyscallEvent, SyscallHook, SyscallKind};
use provio_model::{ActivityClass, EntityClass};
use provio_simrt::VirtualClock;
use std::sync::Arc;

/// The syscall hook. Register with
/// `session.dispatcher().register(Arc::new(PosixWrapper::new(registry)))`.
pub struct PosixWrapper {
    registry: Arc<TrackerRegistry>,
}

impl PosixWrapper {
    pub fn new(registry: Arc<TrackerRegistry>) -> Self {
        PosixWrapper { registry }
    }

    /// Map a syscall to (activity class, tracked object), or `None` for
    /// calls outside the model (close, lseek, stat, readdir, listxattr).
    fn classify(event: &SyscallEvent) -> Option<(ActivityClass, Option<ObjectDesc>)> {
        let file_obj = || {
            event
                .path
                .as_ref()
                .map(|p| ObjectDesc::posix(EntityClass::File, p.clone()))
        };
        Some(match event.kind {
            SyscallKind::Creat => (ActivityClass::Create, file_obj()),
            SyscallKind::Open => (ActivityClass::Open, file_obj()),
            SyscallKind::Read | SyscallKind::Pread => (ActivityClass::Read, file_obj()),
            SyscallKind::Write | SyscallKind::Pwrite | SyscallKind::Truncate => {
                (ActivityClass::Write, file_obj())
            }
            SyscallKind::Fsync => (ActivityClass::Fsync, file_obj()),
            SyscallKind::Rename => (
                ActivityClass::Rename,
                // The object is the *destination* name — that is what
                // subsequent lineage refers to.
                event
                    .path2
                    .as_ref()
                    .map(|p| ObjectDesc::posix(EntityClass::File, p.clone())),
            ),
            SyscallKind::Unlink => (ActivityClass::Rename, file_obj()),
            SyscallKind::Mkdir => (
                ActivityClass::Create,
                event
                    .path
                    .as_ref()
                    .map(|p| ObjectDesc::posix(EntityClass::Directory, p.clone())),
            ),
            SyscallKind::Rmdir => (
                ActivityClass::Rename,
                event
                    .path
                    .as_ref()
                    .map(|p| ObjectDesc::posix(EntityClass::Directory, p.clone())),
            ),
            SyscallKind::Link | SyscallKind::Symlink => (
                ActivityClass::Create,
                event
                    .path2
                    .as_ref()
                    .map(|p| ObjectDesc::posix(EntityClass::Link, p.clone())),
            ),
            SyscallKind::SetXattr => (
                ActivityClass::Write,
                xattr_obj(event),
            ),
            SyscallKind::GetXattr => (ActivityClass::Read, xattr_obj(event)),
            SyscallKind::Close
            | SyscallKind::Lseek
            | SyscallKind::Stat
            | SyscallKind::Readdir
            | SyscallKind::ListXattr => return None,
        })
    }
}

fn xattr_obj(event: &SyscallEvent) -> Option<ObjectDesc> {
    match (&event.path, &event.attr_name) {
        (Some(p), Some(a)) => Some(ObjectDesc::hdf5(EntityClass::Attribute, p.clone(), format!("#{a}"))),
        (Some(p), None) => Some(ObjectDesc::posix(EntityClass::Attribute, p.clone())),
        _ => None,
    }
}

impl SyscallHook for PosixWrapper {
    fn on_syscall(&self, event: &SyscallEvent, _clock: &VirtualClock) {
        let Some(tracker) = self.registry.get(event.pid) else {
            return;
        };
        let Some((activity, object)) = Self::classify(event) else {
            return;
        };
        // The tracker advances the process clock by `record_latency_ns`.
        tracker.track_io(&IoEvent {
            activity,
            api_name: event.kind.name().to_string(),
            object,
            bytes: event.bytes,
            duration_ns: event.duration.as_nanos(),
            timestamp_ns: event.timestamp.as_nanos(),
            ok: event.ok,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProvIoConfig;
    use crate::tracker::ProvTracker;
    use provio_hpcfs::{Dispatcher, FileSystem, FsSession, LustreConfig, OpenFlags};
    use provio_model::ontology::nodes_of_class;
    use provio_rdf::turtle;

    fn rig() -> (Arc<FileSystem>, FsSession, Arc<ProvTracker>) {
        rig_with(ProvIoConfig::default())
    }

    fn rig_with(cfg: ProvIoConfig) -> (Arc<FileSystem>, FsSession, Arc<ProvTracker>) {
        let fs = FileSystem::new(LustreConfig::default());
        let registry = TrackerRegistry::new();
        let clock = VirtualClock::new();
        let tracker = ProvTracker::new(
            cfg.shared(),
            Arc::clone(&fs),
            11,
            "Alice",
            "topreco",
            clock.clone(),
        );
        registry.register(11, Arc::clone(&tracker));
        let dispatcher = Dispatcher::new();
        dispatcher.register(Arc::new(PosixWrapper::new(registry)));
        let session = FsSession::new(Arc::clone(&fs), 11, "Alice", "topreco", clock, dispatcher);
        (fs, session, tracker)
    }

    fn graph_of(fs: &Arc<FileSystem>, tracker: &Arc<ProvTracker>) -> provio_rdf::Graph {
        let summary = tracker.finish();
        let ino = fs.lookup(&summary.store_path).unwrap();
        let size = fs.stat(&summary.store_path).unwrap().size;
        let text = String::from_utf8(fs.read_at(ino, 0, size).unwrap().to_vec()).unwrap();
        turtle::parse(&text).unwrap().0
    }

    #[test]
    fn posix_workflow_captured_transparently() {
        let (fs, s, tracker) = rig();
        s.mkdir("/data").unwrap();
        s.write_file("/data/events.root", b"events").unwrap();
        let data = s.read_file("/data/events.root").unwrap();
        assert_eq!(data, b"events");
        s.rename("/data/events.root", "/data/events.v2.root").unwrap();

        let g = graph_of(&fs, &tracker);
        use provio_model::{ActivityClass as A, EntityClass as E};
        assert!(!nodes_of_class(&g, A::Create.into()).is_empty());
        assert!(!nodes_of_class(&g, A::Read.into()).is_empty());
        assert!(!nodes_of_class(&g, A::Write.into()).is_empty());
        assert!(!nodes_of_class(&g, A::Rename.into()).is_empty());
        assert!(!nodes_of_class(&g, E::Directory.into()).is_empty());
        assert!(nodes_of_class(&g, E::File.into()).len() >= 2);
    }

    #[test]
    fn xattr_calls_become_attribute_entities() {
        let (fs, s, tracker) = rig();
        s.write_file("/f.h5", b"").unwrap();
        s.setxattr("/f.h5", "user.sample_rate", b"500").unwrap();
        s.getxattr("/f.h5", "user.sample_rate").unwrap();
        let g = graph_of(&fs, &tracker);
        let attrs = nodes_of_class(&g, EntityClass::Attribute.into());
        assert_eq!(attrs.len(), 1);
    }

    #[test]
    fn untracked_syscalls_ignored() {
        let (_, s, tracker) = rig();
        s.write_file("/x", b"1").unwrap();
        let before = tracker.event_count();
        s.stat("/x").unwrap();
        s.readdir("/").unwrap();
        let fd = s.open("/x", OpenFlags::rdonly()).unwrap();
        s.lseek(fd, 0, provio_hpcfs::Whence::Set).unwrap();
        s.close(fd).unwrap();
        // stat/readdir/lseek/close are outside the six I/O API classes; only
        // the `open` counts.
        assert_eq!(tracker.event_count(), before + 1);
    }

    #[test]
    fn failed_syscalls_leave_no_provenance() {
        let (_, s, tracker) = rig();
        assert!(s.open("/missing", OpenFlags::rdonly()).is_err());
        assert_eq!(tracker.event_count(), 0);
    }

    /// 50 `write_file` calls on a tracked session and on a bare one over an
    /// identical, separate file system.
    fn tracked_and_bare(record_latency_ns: u64) -> (FsSession, FsSession, Arc<ProvTracker>) {
        let cfg = ProvIoConfig::default().with_record_latency_ns(record_latency_ns);
        let (_, s, tracker) = rig_with(cfg);
        let bare = FsSession::new(
            FileSystem::new(LustreConfig::default()),
            12,
            "Alice",
            "topreco",
            VirtualClock::new(),
            Dispatcher::new(),
        );
        for i in 0..50 {
            s.write_file(&format!("/t{i}"), b"x").unwrap();
            bare.write_file(&format!("/t{i}"), b"x").unwrap();
        }
        (s, bare, tracker)
    }

    #[test]
    fn wrapper_charges_tracking_time_to_process() {
        let latency = crate::config::DEFAULT_RECORD_LATENCY_NS;
        let (s, bare, tracker) = tracked_and_bare(latency);
        assert!(tracker.event_count() >= 50);
        assert_eq!(
            s.clock().now().elapsed_since(bare.clock().now()).as_nanos(),
            tracker.event_count() * latency,
            "tracking costs the process its tracked calls × record_latency_ns, exactly"
        );
    }

    #[test]
    fn free_tracking_ends_at_the_untracked_instant() {
        let (s, bare, tracker) = tracked_and_bare(0);
        assert!(tracker.event_count() >= 50);
        assert_eq!(s.clock().now(), bare.clock().now());
    }
}
