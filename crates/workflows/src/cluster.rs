//! Shared experiment rig: file system + VOL stack + tracker registry.

use provio::{Collector, ProvIoConfig, ProvIoVol, TrackerRegistry};
use provio_hdf5::{NativeVol, VolConnector, H5};
use provio_hpcfs::{Dispatcher, FileSystem, FsSession, LustreConfig};
use provio_simrt::VirtualClock;
use std::sync::{Arc, Mutex};

/// One simulated "machine": a Lustre-backed file system with a native VOL
/// and a PROV-IO connector stacked on top, plus the pid→tracker registry
/// the tracking layers consult.
pub struct Cluster {
    pub fs: Arc<FileSystem>,
    pub native: Arc<dyn VolConnector>,
    pub provio_vol: Arc<ProvIoVol>,
    pub registry: Arc<TrackerRegistry>,
    /// Optional streaming aggregator. When armed (via [`Cluster::stream_to`])
    /// and the config enables `net`, every newly attached tracker gets a
    /// [`provio::NetClient`] so flushed batches stream to the collector live
    /// instead of only landing in per-rank files.
    collector: Mutex<Option<Arc<Collector>>>,
}

impl Cluster {
    pub fn new() -> Self {
        Self::with_lustre(LustreConfig::default())
    }

    pub fn with_lustre(lustre: LustreConfig) -> Self {
        let fs = FileSystem::new(lustre);
        let native: Arc<dyn VolConnector> = Arc::new(NativeVol::new(Arc::clone(&fs)));
        let registry = TrackerRegistry::new();
        let provio_vol = ProvIoVol::new(Arc::clone(&native), Arc::clone(&registry));
        Cluster {
            fs,
            native,
            provio_vol,
            registry,
            collector: Mutex::new(None),
        }
    }

    /// Arm live streaming: trackers attached after this call (by a config
    /// with `net = true`) send their flushed batches to `collector` over the
    /// simulated interconnect. The rank-local store stays authoritative —
    /// the collector is a live mirror that [`Collector::resync`] can rebuild
    /// from the rank files after a crash.
    pub fn stream_to(&self, collector: Arc<Collector>) {
        *self.collector.lock().unwrap() = Some(collector);
    }

    /// The armed collector, if any.
    pub fn collector(&self) -> Option<Arc<Collector>> {
        self.collector.lock().unwrap().clone()
    }

    /// A process session on this cluster. `tracked` processes attach a
    /// PROV-IO tracker (agents recorded, syscall wrapper hooked) and their
    /// HDF5 calls route through the provenance connector; untracked
    /// processes use the native connector directly.
    pub fn process(
        &self,
        pid: u32,
        user: &str,
        program: &str,
        clock: VirtualClock,
        provio_cfg: Option<&Arc<ProvIoConfig>>,
    ) -> (Arc<FsSession>, H5) {
        let dispatcher = Dispatcher::new();
        let session = Arc::new(FsSession::new(
            Arc::clone(&self.fs),
            pid,
            user,
            program,
            clock.clone(),
            dispatcher,
        ));
        let vol: Arc<dyn VolConnector> = match provio_cfg {
            Some(cfg) => {
                if self.registry.get(pid).is_none() {
                    provio::ProvIoApi::attach(
                        Arc::clone(cfg),
                        Arc::clone(&self.fs),
                        &session,
                        &self.registry,
                    );
                    if cfg.net {
                        if let (Some(collector), Some(tracker)) =
                            (self.collector(), self.registry.get(pid))
                        {
                            tracker.attach_net(collector.client(pid, clock, cfg.as_ref()));
                        }
                    }
                } else {
                    // The pid's tracker already exists (a later superstep of
                    // the same rank); only hook this session's dispatcher.
                    session.dispatcher().register(Arc::new(provio::PosixWrapper::new(
                        Arc::clone(&self.registry),
                    )));
                }
                Arc::clone(&self.provio_vol) as Arc<dyn VolConnector>
            }
            None => Arc::clone(&self.native),
        };
        let h5 = H5::new(Arc::clone(&session), vol);
        (session, h5)
    }

    /// Finish every registered tracker (see `TrackerRegistry::finish_all`),
    /// retire them, and total what landed under `dir`: provenance bytes,
    /// file count and tracked events.
    pub fn finish_provenance(&self, dir: &str) -> (u64, usize, u64) {
        let summaries = self.registry.finish_all();
        for (pid, _) in &summaries {
            self.registry.unregister(*pid);
        }
        let (bytes, files) = self.prov_usage(dir);
        (bytes, files, summaries.iter().map(|(_, s)| s.events).sum())
    }

    /// Total provenance bytes + file count under `dir`.
    pub fn prov_usage(&self, dir: &str) -> (u64, usize) {
        match self.fs.walk_files(dir) {
            Ok(files) => {
                let bytes = files
                    .iter()
                    .filter_map(|p| self.fs.stat(p).ok())
                    .map(|m| m.size)
                    .sum();
                (bytes, files.len())
            }
            Err(_) => (0, 0),
        }
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_process_produces_provenance() {
        let c = Cluster::new();
        let cfg = ProvIoConfig::default().shared();
        let (s, h5) = c.process(1, "alice", "quick", VirtualClock::new(), Some(&cfg));
        let f = h5.create_file("/x.h5").unwrap();
        h5.close_file(f).unwrap();
        s.write_file("/notes.txt", b"hi").unwrap();
        let summaries = c.registry.finish_all();
        assert_eq!(summaries.len(), 1);
        assert!(summaries[0].1.events >= 2, "H5 + POSIX both captured");
        let (bytes, files) = c.prov_usage("/provio");
        assert!(bytes > 0);
        assert_eq!(files, 1);
    }

    #[test]
    fn streamed_process_mirrors_the_store() {
        let c = Cluster::new();
        let collector = Collector::new(
            Arc::clone(&c.fs),
            "/provio",
            provio_simrt::NetPlan::ideal(7),
        );
        c.stream_to(Arc::clone(&collector));
        let cfg = ProvIoConfig::default()
            .with_wal(true, 8)
            .with_net(true, 1_000_000)
            .shared();
        let (s, h5) = c.process(1, "alice", "stream", VirtualClock::new(), Some(&cfg));
        let f = h5.create_file("/x.h5").unwrap();
        h5.close_file(f).unwrap();
        s.write_file("/notes.txt", b"hi").unwrap();
        let summaries = c.registry.finish_all();
        assert!(summaries[0].1.net_sent > 0, "tracker streamed its batches");
        assert_eq!(summaries[0].1.net_unacked, 0, "ideal fabric acks everything");
        let (ground, _) = provio::merge_directory(&c.fs, "/provio");
        assert!(collector.triples() > 0);
        assert_eq!(
            provio_rdf::ntriples::sorted_graph_lines(&collector.graph()),
            provio_rdf::ntriples::sorted_graph_lines(&ground),
            "live stream converged to the post-hoc merge"
        );
    }

    #[test]
    fn streaming_is_inert_without_net_config() {
        let c = Cluster::new();
        let collector = Collector::new(
            Arc::clone(&c.fs),
            "/provio",
            provio_simrt::NetPlan::ideal(7),
        );
        c.stream_to(Arc::clone(&collector));
        // Config has wal but not net: the collector must stay empty.
        let cfg = ProvIoConfig::default().with_wal(true, 8).shared();
        let (_s, h5) = c.process(3, "carol", "quiet-wire", VirtualClock::new(), Some(&cfg));
        let f = h5.create_file("/q.h5").unwrap();
        h5.close_file(f).unwrap();
        // Config built with net but no wal (`from_ini` rejects the pair;
        // the builders cannot): acks would outrun durability, so the
        // tracker refuses the client and nothing is streamed either.
        let cfg = ProvIoConfig::default().with_net(true, 1_000_000).shared();
        let (_s, h5) = c.process(4, "dave", "no-journal", VirtualClock::new(), Some(&cfg));
        let f = h5.create_file("/r.h5").unwrap();
        h5.close_file(f).unwrap();
        let summaries = c.registry.finish_all();
        assert_eq!(summaries.len(), 2);
        for (_, summary) in &summaries {
            assert_eq!(summary.net_sent, 0);
        }
        assert_eq!(collector.triples(), 0);
    }

    #[test]
    fn untracked_process_is_silent() {
        let c = Cluster::new();
        let (s, h5) = c.process(2, "bob", "quiet", VirtualClock::new(), None);
        let f = h5.create_file("/y.h5").unwrap();
        h5.close_file(f).unwrap();
        s.write_file("/z.txt", b"x").unwrap();
        assert_eq!(c.prov_usage("/provio"), (0, 0));
        assert!(c.registry.finish_all().is_empty());
    }
}
