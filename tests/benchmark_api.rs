//! The workspace API that `benchmark/` compiles against, spelled once
//! inside the workspace. The benchmark is a package of its own, outside
//! the tier-1 command, and may not be edited alongside the code it
//! measures — so an item renamed or removed here would first fail the
//! out-of-workspace benchmark build. This file makes it fail `cargo test`
//! instead. Compile-only: nothing here runs.

use prov_io::core::frame::{self, Encoder, FrameKind};
use prov_io::core::verify::{self, RankEntry, RootCache};
use prov_io::core::{ProvTracker, RdfFormat};
use prov_io::model::{ontology, AgentClass, GuidGen, PropKey, ProvNode, ProvRecord};
use prov_io::prelude::*;
use std::sync::Arc;

#[allow(dead_code)]
fn benchmark_api(fs: Arc<FileSystem>, summary: TrackSummary, tracker: &ProvTracker) {
    // `ProvIoConfig`: the plane fields the ladder asserts on and every
    // builder the workload configurations chain.
    let cfg = ProvIoConfig::default()
        .with_selector(ClassSelector::all())
        .with_store_dir("/provio")
        .with_policy(SerializationPolicy::EveryRecords(1000))
        .with_format(RdfFormat::NTriples)
        .with_record_latency_ns(0)
        .synchronous()
        .with_checksums(true)
        .with_wal(true, 64)
        .with_parity(true, 4)
        .with_manifest(true)
        .with_manifest_key("key")
        .with_net(true, 10_000_000);
    let _: [bool; 6] = [
        cfg.net,
        cfg.checksum_format,
        cfg.wal,
        cfg.parity,
        cfg.manifest,
        cfg.async_store,
    ];
    let cfg = cfg.shared();

    // `ProvenanceStore`, driven directly.
    let store = ProvenanceStore::new(
        Arc::clone(&fs),
        "/provio/prov_p1.nt",
        RdfFormat::NTriples,
        false,
    )
    .with_checksums(true)
    .with_wal(true, 64)
    .with_parity(true, 4);
    store.push(Vec::new(), None);
    store.flush(None);
    store.wal_sync();
    let _: u64 = store.wal_records();
    let _: u64 = store.finish(None);
    let _: bool = store.degraded();

    // `TrackSummary`: the fields the output checks read.
    let _: [u64; 7] = [
        summary.events,
        summary.triples,
        summary.dropped_flushes,
        summary.shed_batches,
        summary.store_bytes,
        summary.net_sent,
        summary.net_unacked,
    ];
    let _: bool = summary.degraded;

    // `frame`: the encoder and decoders the frame layer rows time.
    let guid: u64 = frame::store_guid("/provio/prov_p1.nt");
    let mut enc = Encoder::new(FrameKind::Delta, guid, 0, frame::CHAIN_START);
    enc.reserve(0);
    enc.batch_block("", 0);
    let (bytes, _chain, _root): (Vec<u8>, u32, [u8; 32]) = enc.finish_with_root();
    let text = String::from_utf8_lossy(&bytes);
    let _ = frame::decode(&text).map(|f| f.payload);
    let _ = frame::decode_wal(&text, guid).records.len();
    let _: u64 = frame::fnv1a64(&bytes);
    let _: bool = frame::is_parity_path("/provio/prov_p1.nt.p000000.par");

    // `verify`: the seal as `finish_all` runs it, from commit-time roots.
    let ranks = [RankEntry {
        pid: 1,
        degraded: summary.degraded,
        triples: summary.triples,
    }];
    let mut roots = RootCache::new();
    for (path, n, root) in tracker.store().committed_roots() {
        roots.insert(path, (n, root));
    }
    let _ = verify::seal_run_with_roots(&fs, "/provio", "key", &ranks, &roots).is_ok();

    // `Collector`: both ways to a client, and the tracker's end of it.
    let collector = Collector::new(Arc::clone(&fs), "/provio", NetPlan::ideal(1));
    tracker.attach_net(collector.client(1, VirtualClock::new(), &cfg));
    let client = collector.client_with(
        1,
        VirtualClock::new(),
        RetryPolicy::default(),
        10_000_000,
        64,
        OverloadPolicy::Block,
    );
    client.send(Vec::new());
    let _: u64 = client.drain(64).unacked_batches;

    // `provio_model`: the record types the benchmark's `model` row builds.
    let agent = GuidGen::agent("User", "alice");
    let _ = GuidGen::new(1);
    let rec = ProvRecord::new(
        ProvNode::new(agent.clone(), AgentClass::User, "alice").with_prop(PropKey::Rank, 1u64),
    )
    .with_relation(Relation::ActedOnBehalfOf, agent);
    ontology::record_triples_into(&rec, &mut Vec::new());
    let _ = [PropKey::ElapsedNs, PropKey::TimestampNs, PropKey::Bytes];
    let _: String = Relation::for_activity(ActivityClass::Write).iri();
}
