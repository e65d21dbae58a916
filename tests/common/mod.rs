//! The seeded every-plane scenario and the directory / graph / operation
//! digests shared by `golden_store.rs` (what capture leaves behind),
//! `golden_recovery.rs` (what recovery makes of it) and
//! `golden_workflows.rs` (what whole runs on the virtual clock leave). The
//! scenarios of each, with the values recorded for them, sit in the
//! submodule named after it, so `pool_sizes.rs` checks the same values at
//! other pool sizes.
#![allow(dead_code)] // each test binary uses its own part

pub mod recovery;
pub mod store;
pub mod workflows;

use prov_io::core::frame::fnv1a64;
use prov_io::core::{
    IoEvent, ObjectDesc, ProvIoConfig, ProvTracker, RdfFormat, SerializationPolicy,
};
use prov_io::hpcfs::{FileSystem, OpTrace, TraceOp};
use prov_io::model::{ActivityClass, EntityClass};
use prov_io::rdf::ntriples::sorted_graph_lines;
use prov_io::rdf::Graph;
use prov_io::simrt::{DetRng, VirtualClock};
use sha2::Sha256;
use std::sync::Arc;

/// A named scenario and what was recorded for it.
pub type Scenario<T, Recorded> = (&'static str, fn() -> T, Recorded);

pub const SEED: u64 = 0x60_1D;
pub const RANKS: u32 = 4;
pub const EVENTS_PER_RANK: u32 = 3_100;
pub const DIR: &str = "/provio";
pub const KEY: &str = "golden-store-key";

/// Every plane on: framed N-Triples, synchronous flushes every 1 000
/// records, journal in groups of 64, parity, signed manifest. Narrow parity
/// groups and early compaction, so groups seal and segments fold mid-run.
pub fn durable_config() -> Arc<ProvIoConfig> {
    ProvIoConfig::default()
        .with_format(RdfFormat::NTriples)
        .synchronous()
        .with_policy(SerializationPolicy::EveryRecords(1_000))
        .with_checksums(true)
        .with_wal(true, 64)
        .with_parity(true, 2)
        .with_compact_every(2)
        .with_manifest(true)
        .with_manifest_key(KEY)
        .with_record_latency_ns(0)
        .shared()
}

/// One rank's seeded event stream: a mix of activities over a few files
/// and datasets, so nodes repeat (dedup) and first sights keep occurring.
pub fn events(rank: u32) -> Vec<IoEvent> {
    let mut rng = DetRng::with_stream(SEED, u64::from(rank));
    (0..EVENTS_PER_RANK)
        .map(|i| {
            let (activity, api_name) = match rng.below(4) {
                0 => (ActivityClass::Write, "H5Dwrite"),
                1 => (ActivityClass::Read, "H5Dread"),
                2 => (ActivityClass::Open, "H5Dopen2"),
                _ => (ActivityClass::Create, "H5Dcreate2"),
            };
            let file = format!("/data/r{rank}_f{}.h5", rng.below(3));
            let object = if rng.chance(0.1) {
                ObjectDesc::posix(EntityClass::File, file)
            } else {
                ObjectDesc::hdf5(EntityClass::Dataset, file, format!("/g/d{}", rng.below(40)))
            };
            IoEvent {
                activity,
                api_name: api_name.to_string(),
                object: Some(object),
                bytes: rng.range(1, 1 << 20),
                duration_ns: rng.range(100, 50_000),
                timestamp_ns: 1_000_000 + u64::from(i) * 1_000,
                ok: true,
            }
        })
        .collect()
}

/// A tracker for rank `pid` that has captured its whole seeded stream.
pub fn tracked_rank(cfg: &Arc<ProvIoConfig>, fs: &Arc<FileSystem>, pid: u32) -> Arc<ProvTracker> {
    let tracker = ProvTracker::new(
        Arc::clone(cfg),
        Arc::clone(fs),
        pid,
        "alice",
        "golden",
        VirtualClock::new(),
    );
    for event in events(pid) {
        tracker.track_io(&event);
    }
    tracker
}

pub fn put(h: &mut Sha256, field: &[u8]) {
    h.update(&(field.len() as u64).to_le_bytes());
    h.update(field);
}

/// Every file under `dir`, sorted by path.
pub fn files_under(fs: &Arc<FileSystem>, dir: &str) -> Vec<(String, Vec<u8>)> {
    let mut paths = fs.walk_files(dir).expect("store directory");
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let ino = fs.lookup(&path).expect("listed file");
            let size = fs.file_size(ino).expect("listed file");
            let bytes = fs.read_at(ino, 0, size).expect("readable").to_vec();
            (path, bytes)
        })
        .collect()
}

/// SHA-256 over every (path, bytes).
pub fn files_digest(files: &[(String, Vec<u8>)]) -> String {
    let mut h = Sha256::new();
    for (path, bytes) in files {
        put(&mut h, path.as_bytes());
        put(&mut h, bytes);
    }
    sha2::hex(&h.finalize())
}

/// SHA-256 over the graph's sorted N-Triples lines.
pub fn graph_digest(graph: &Graph) -> String {
    let mut h = Sha256::new();
    for line in sorted_graph_lines(graph) {
        put(&mut h, line.as_bytes());
    }
    sha2::hex(&h.finalize())
}

/// What a run left and did: every file under the store directory, by
/// path, and every file-system operation it issued, in order.
#[derive(PartialEq)]
pub struct Image {
    pub files: Vec<(String, Vec<u8>)>,
    pub ops: Vec<TraceOp>,
}

impl Image {
    pub fn of(fs: &Arc<FileSystem>, trace: &OpTrace) -> Image {
        Image {
            files: files_under(fs, DIR),
            ops: trace.snapshot(),
        }
    }

    /// SHA-256 over every (path, bytes) of the directory.
    pub fn directory_digest(&self) -> String {
        files_digest(&self.files)
    }

    /// SHA-256 over the operations in issue order. A write enters as its
    /// path, offset, length and the FNV-1a of its payload: the trace
    /// carries every intermediate file several times over, and hashing
    /// all of it with SHA-256 would dominate an unoptimized test run.
    pub fn trace_digest(&self) -> String {
        let mut h = Sha256::new();
        for op in &self.ops {
            match op {
                TraceOp::Create { path } => {
                    put(&mut h, b"create");
                    put(&mut h, path.as_bytes());
                }
                TraceOp::WriteAt { path, offset, data } => {
                    put(&mut h, b"write_at");
                    put(&mut h, path.as_bytes());
                    put(&mut h, &offset.to_le_bytes());
                    put(&mut h, &(data.len() as u64).to_le_bytes());
                    put(&mut h, &fnv1a64(data).to_le_bytes());
                }
                TraceOp::Rename { old, new } => {
                    put(&mut h, b"rename");
                    put(&mut h, old.as_bytes());
                    put(&mut h, new.as_bytes());
                }
                TraceOp::Unlink { path } => {
                    put(&mut h, b"unlink");
                    put(&mut h, path.as_bytes());
                }
                TraceOp::Truncate { path, size } => {
                    put(&mut h, b"truncate");
                    put(&mut h, path.as_bytes());
                    put(&mut h, &size.to_le_bytes());
                }
            }
        }
        sha2::hex(&h.finalize())
    }
}
