//! The store's on-disk bytes, file names and file-system operation order
//! are frozen: a fixed seeded stream through the default configuration and
//! through every durability plane at once must leave exactly the directory
//! and issue exactly the operations it did when the digests below were
//! recorded (at the commit before the write path was restructured). A
//! change that moves one byte, renames one file or reorders one call fails
//! here and names which of the two moved.

use prov_io::core::frame::fnv1a64;
use prov_io::core::{
    IoEvent, ObjectDesc, ProvIoConfig, ProvTracker, ProvenanceStore, RdfFormat,
    SerializationPolicy, TrackerRegistry,
};
use prov_io::hpcfs::{FileSystem, LustreConfig, OpTrace, TraceOp};
use prov_io::model::{ActivityClass, EntityClass};
use prov_io::rdf::{Iri, Subject, Term, Triple};
use prov_io::simrt::{DetRng, VirtualClock};
use sha2::Sha256;
use std::sync::Arc;

const SEED: u64 = 0x60_1D;
const RANKS: u32 = 4;
const EVENTS_PER_RANK: u32 = 3_100;
const DIR: &str = "/provio";

/// Paper default: Turtle, serialized once at the end, asynchronous store.
fn default_config() -> Arc<ProvIoConfig> {
    ProvIoConfig::default().with_record_latency_ns(0).shared()
}

/// Every plane on: framed N-Triples, synchronous flushes every 1 000
/// records, journal in groups of 64, parity, signed manifest. Narrow parity
/// groups and early compaction, so groups seal and segments fold mid-run.
fn durable_config() -> Arc<ProvIoConfig> {
    ProvIoConfig::default()
        .with_format(RdfFormat::NTriples)
        .synchronous()
        .with_policy(SerializationPolicy::EveryRecords(1_000))
        .with_checksums(true)
        .with_wal(true, 64)
        .with_parity(true, 2)
        .with_compact_every(2)
        .with_manifest(true)
        .with_manifest_key("golden-store-key")
        .with_record_latency_ns(0)
        .shared()
}

/// One rank's seeded event stream: a mix of activities over a few files
/// and datasets, so nodes repeat (dedup) and first sights keep occurring.
fn events(rank: u32) -> Vec<IoEvent> {
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

fn put(h: &mut Sha256, field: &[u8]) {
    h.update(&(field.len() as u64).to_le_bytes());
    h.update(field);
}

/// What a run left and did: every file under the store directory, by
/// path, and every file-system operation it issued, in order.
#[derive(PartialEq)]
struct Image {
    files: Vec<(String, Vec<u8>)>,
    ops: Vec<TraceOp>,
}

impl Image {
    fn of(fs: &Arc<FileSystem>, trace: &OpTrace) -> Image {
        let mut paths = fs.walk_files(DIR).expect("store directory");
        paths.sort();
        let files = paths
            .into_iter()
            .map(|path| {
                let ino = fs.lookup(&path).expect("listed file");
                let size = fs.file_size(ino).expect("listed file");
                let bytes = fs.read_at(ino, 0, size).expect("readable").to_vec();
                (path, bytes)
            })
            .collect();
        Image {
            files,
            ops: trace.snapshot(),
        }
    }

    /// SHA-256 over every (path, bytes) of the directory.
    fn directory_digest(&self) -> String {
        let mut h = Sha256::new();
        for (path, bytes) in &self.files {
            put(&mut h, path.as_bytes());
            put(&mut h, bytes);
        }
        sha2::hex(&h.finalize())
    }

    /// SHA-256 over the operations in issue order. A write enters as its
    /// path, offset, length and the FNV-1a of its payload: the trace
    /// carries every intermediate file several times over, and hashing
    /// all of it with SHA-256 would dominate an unoptimized test run.
    fn trace_digest(&self) -> String {
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

/// Run `scenario` twice: the runs must agree with each other, and the
/// first with the recorded digests.
fn assert_frozen(scenario: impl Fn() -> Image, directory: &str, trace: &str) {
    let first = scenario();
    assert!(first == scenario(), "two runs, two results");
    assert_eq!(
        (
            first.directory_digest().as_str(),
            first.trace_digest().as_str()
        ),
        (directory, trace),
        "(directory bytes and file names, file-system operations and their order)"
    );
}

/// Capture the seeded streams on four ranks, rank after rank, then one
/// `finish_all`.
fn run(cfg: &Arc<ProvIoConfig>) -> Image {
    let fs = FileSystem::new(LustreConfig::default());
    let trace = OpTrace::new();
    fs.attach_tracer(Arc::clone(&trace));
    let registry = TrackerRegistry::new();
    for pid in 0..RANKS {
        let tracker = ProvTracker::new(
            Arc::clone(cfg),
            Arc::clone(&fs),
            pid,
            "alice",
            "golden",
            VirtualClock::new(),
        );
        for event in events(pid) {
            tracker.track_io(&event);
        }
        registry.register(pid, tracker);
    }
    let summaries = registry.finish_all();
    assert!(summaries
        .iter()
        .all(|(_, s)| !s.degraded && s.store_bytes > 0));
    Image::of(&fs, &trace)
}

/// The store driven directly, for what the tracker's push-then-flush
/// cadence never reaches: several journal appends per generation (so
/// journal-plane parity groups seal and retire), compaction every third
/// segment, a store left unfinished, and a framed Turtle snapshot.
fn run_direct() -> Image {
    let fs = FileSystem::new(LustreConfig::default());
    let trace = OpTrace::new();
    fs.attach_tracer(Arc::clone(&trace));
    let store = |name: &str, format| {
        ProvenanceStore::new(Arc::clone(&fs), format!("{DIR}/{name}"), format, false)
            .with_checksums(true)
    };
    let planes = |st: ProvenanceStore| {
        st.with_wal(true, 4)
            .with_parity(true, 2)
            .with_compact_every(3)
    };
    let finished = planes(store("finished.nt", RdfFormat::NTriples));
    let crashed = planes(store("unfinished.nt", RdfFormat::NTriples));
    let turtle = store("framed.ttl", RdfFormat::Turtle);
    let mut rng = DetRng::with_stream(SEED, 99);
    for push in 0..58u64 {
        let batch: Vec<Triple> = (0..rng.range(1, 7))
            .map(|_| {
                Triple::new(
                    Subject::iri(format!("urn:golden:s{}", rng.below(120))),
                    Iri::new(format!("urn:golden:p{}", rng.below(3))),
                    Term::plain(format!("value {}", rng.below(9))),
                )
            })
            .collect();
        for st in [&finished, &crashed, &turtle] {
            st.push(batch.clone(), None);
            if push % 5 == 4 {
                st.flush(None);
            }
        }
    }
    assert!(finished.finish(None) > 0 && turtle.finish(None) > 0);
    // Never finished: a live segment and a journaled, unflushed tail stay.
    let files = fs.walk_files(DIR).expect("store directory");
    let left = |marker: &str| files.iter().any(|p| p.contains(marker));
    assert!(left("unfinished.nt.d") && left("unfinished.nt.w") && left("unfinished.nt.p"));
    Image::of(&fs, &trace)
}

#[test]
fn default_config_bytes_and_op_order_are_frozen() {
    assert_frozen(
        || run(&default_config()),
        "7da98884831c0300605744ea10c58fce104f37847b490db5b08931376baf4b50",
        "ae7bc9a09f059854c5a5c38159811f71f637d90ba1140160c15274631210a2ef",
    );
}

#[test]
fn every_plane_on_bytes_and_op_order_are_frozen() {
    assert_frozen(
        || run(&durable_config()),
        "cd5285346013533d7744eb1f251221b2528353e11c7692ebafbcbb39b9db4cee",
        "27da4aaa34af6e35b0ef88bf6174504cbc6d4f3fdb7961e387386aeeb820dc93",
    );
}

#[test]
fn direct_store_bytes_and_op_order_are_frozen() {
    assert_frozen(
        run_direct,
        "7e4069f88d7d7286d1993e2a9c4d2f8673597dfe633b48781dbba65741e47774",
        "832dc53854094a05527252b4d4c17ff3c5fe4e302d69a3cf1086d545cfd83c4f",
    );
}
