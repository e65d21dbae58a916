//! The store's on-disk bytes, file names and file-system operation order
//! are frozen: a fixed seeded stream through the default configuration and
//! through every durability plane at once must leave exactly the directory
//! and issue exactly the operations it did when the digests below were
//! recorded (at the commit before the write path was restructured). A
//! change that moves one byte, renames one file or reorders one call fails
//! here and names which of the two moved.

mod common;

use common::{durable_config, tracked_rank, Image, DIR, RANKS, SEED};
use prov_io::core::{ProvIoConfig, ProvenanceStore, RdfFormat, TrackerRegistry};
use prov_io::hpcfs::{FileSystem, LustreConfig, OpTrace};
use prov_io::rdf::{Iri, Subject, Term, Triple};
use prov_io::simrt::DetRng;
use std::sync::Arc;

/// Paper default: Turtle, serialized once at the end, asynchronous store.
fn default_config() -> Arc<ProvIoConfig> {
    ProvIoConfig::default().with_record_latency_ns(0).shared()
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
        registry.register(pid, tracked_rank(cfg, &fs, pid));
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
