//! The explicit PROV-IO APIs (paper §4.2: "a set of PROV-IO APIs which
//! enables users to convey user/workflow-specific semantics").
//!
//! Workflows that need more than transparent I/O capture — e.g. Top Reco
//! mapping hyperparameters to training accuracy — instrument their code
//! with these calls, exactly like the paper instruments the GNN training
//! loop. The facade also wires up a complete tracked process in one call
//! ([`ProvIoApi::attach`]), standing in for library initialization at
//! program start.

use crate::config::ProvIoConfig;
use crate::tracker::{ProvTracker, TrackerRegistry};
use crate::wrapper::PosixWrapper;
use provio_hpcfs::{FileSystem, FsSession};
use provio_model::Guid;
use std::sync::Arc;

/// Per-process handle to the explicit tracking APIs.
pub struct ProvIoApi {
    tracker: Arc<ProvTracker>,
}

impl ProvIoApi {
    pub fn new(tracker: Arc<ProvTracker>) -> Self {
        ProvIoApi { tracker }
    }

    /// Create a tracker for a process, register it with `registry`, hook
    /// the process's syscall dispatcher, and return the API handle.
    ///
    /// This is everything the paper's "little manual effort" amounts to:
    /// one call at process start.
    pub fn attach(
        config: Arc<ProvIoConfig>,
        fs: Arc<FileSystem>,
        session: &FsSession,
        registry: &Arc<TrackerRegistry>,
    ) -> Self {
        let tracker = ProvTracker::new(
            config,
            fs,
            session.pid(),
            session.user(),
            session.program(),
            session.clock().clone(),
        );
        registry.register(session.pid(), Arc::clone(&tracker));
        // Idempotent enough for our use: each session has its own dispatcher
        // in the workflows; registering the wrapper here makes POSIX capture
        // transparent for this process.
        session
            .dispatcher()
            .register(Arc::new(PosixWrapper::new(Arc::clone(registry))));
        ProvIoApi::new(tracker)
    }

    /// Record a (versioned) configuration value.
    pub fn track_configuration(&self, name: &str, value: &str) -> Option<Guid> {
        self.tracker.track_configuration(name, value)
    }

    /// Record a metric (attached to the current configuration versions).
    pub fn track_metric(&self, name: &str, value: f64) -> Option<Guid> {
        self.tracker.track_metric(name, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_hpcfs::{Dispatcher, LustreConfig};
    use provio_simrt::VirtualClock;
    use provio_model::ontology::nodes_of_class;
    use provio_model::{ClassSelector, ExtensibleClass};
    use provio_rdf::turtle;

    #[test]
    fn attach_wires_everything() {
        let fs = FileSystem::new(LustreConfig::default());
        let registry = TrackerRegistry::new();
        let session = FsSession::new(
            Arc::clone(&fs),
            33,
            "Alice",
            "topreco",
            VirtualClock::new(),
            Dispatcher::new(),
        );
        let cfg = ProvIoConfig::default()
            .with_selector(ClassSelector::all())
            .shared();
        let api = ProvIoApi::attach(cfg, Arc::clone(&fs), &session, &registry);

        // POSIX capture is live.
        session.write_file("/config.ini", b"[gnn]\nlr=0.01\n").unwrap();
        // Explicit APIs work.
        api.track_configuration("lr", "0.01").unwrap();
        api.track_metric("accuracy", 0.83).unwrap();

        let summary = api.tracker.finish();
        assert!(summary.events >= 1);
        let ino = fs.lookup(&summary.store_path).unwrap();
        let size = fs.stat(&summary.store_path).unwrap().size;
        let text = String::from_utf8(fs.read_at(ino, 0, size).unwrap().to_vec()).unwrap();
        let (g, _) = turtle::parse(&text).unwrap();
        assert_eq!(nodes_of_class(&g, ExtensibleClass::Configuration.into()).len(), 1);
        assert_eq!(nodes_of_class(&g, ExtensibleClass::Metrics.into()).len(), 1);
        assert!(!nodes_of_class(&g, provio_model::EntityClass::File.into()).is_empty());
    }
}
