//! The workspace API that `benchmark/` compiles against, spelled once
//! inside the workspace. The benchmark is a package of its own, outside
//! the tier-1 command, and may not be edited alongside the code it
//! measures — so an item renamed or removed here would first fail the
//! out-of-workspace benchmark build. This file makes it fail `cargo test`
//! instead. Compile-only: nothing here runs.

use prov_io::core::frame::{self, Encoder, FrameKind};
use prov_io::core::verify::{self, RankEntry, RootCache};
use prov_io::core::merge::MergeReport;
use prov_io::core::{ProvTracker, RdfFormat};
use prov_io::hpcfs::TraceOp;
use prov_io::model::{ontology, AgentClass, Guid, GuidGen, PropKey, ProvNode, ProvRecord};
use prov_io::prelude::*;
use prov_io::rdf::{ntriples, turtle, Graph, Namespaces, Term};
use prov_io::workflows::{dassa, h5bench, topreco, RunMetrics};
use std::collections::HashSet;
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

/// The read side: recovery tiers, merge, the query engine, the RDF
/// renderers and parsers the layer rows time, the rot and op-trace hooks,
/// and the three workflow drivers.
#[allow(dead_code)]
fn benchmark_read_api(fs: Arc<FileSystem>, cluster: &Cluster, probe: &Guid, mode: ProvMode) {
    // `recover_all` and the `RecoveryOutcome` fields the checks read.
    let out: RecoveryOutcome = recover_all(&fs, "/provio", Some("key"));
    let _: [usize; 3] = [
        out.scrub.repaired_files.len(),
        out.scrub.unrecoverable.len(),
        out.quarantined.len(),
    ];
    let _: bool = out.verify.is_some_and(|v| v.is_trusted());
    let mut graph: Graph = out.graph;

    // The same three tiers one by one, as the traced run calls them.
    let scrub: ScrubReport = scrub_directory(&fs, "/provio");
    let _: (&Vec<String>, &Vec<String>) = (&scrub.repaired_files, &scrub.unrecoverable);
    let (merged, report): (Graph, MergeReport) = merge_directory(&fs, "/provio");
    let _: usize = report.replayed_triples;
    let audit: VerifyReport = verify_directory(&fs, "/provio", "key");
    let _: bool = audit.is_trusted();
    let _: Vec<String> = quarantine_tampered(&fs, &audit);
    let _: HashSet<String> = repairable_paths(&fs, "/provio");

    // Rot at rest, and the op trace the write-amplification rows count.
    let kind = CorruptKind::BitFlips { count: 3 };
    let _: bool = fs.corrupt_at_rest("/provio/prov_p1.nt", &kind, 7).is_ok_and(|n: u64| n > 0);
    let trace = OpTrace::new();
    fs.attach_tracer(Arc::clone(&trace));
    let _: u64 = trace
        .snapshot()
        .iter()
        .map(|op| match op {
            TraceOp::WriteAt { data, .. } => data.len() as u64,
            _ => 0,
        })
        .sum();

    // `rdf`: renderers, parsers and the bulk merge.
    let term_of = |id: u32| &merged.terms()[id as usize];
    let ids: &[(u32, u32, u32)] = merged.ids_from(0);
    let block: String = ntriples::id_block(ids, term_of);
    let _: Vec<String> = ntriples::sorted_id_lines(ids, term_of);
    let _: Vec<String> = ntriples::sorted_graph_lines(&merged);
    let _: Option<String> = merged.terms().first().map(|t: &Term| ntriples::render_term(t));
    let _: bool = ntriples::parse_into(&block, &mut graph).is_ok();
    let text: String = turtle::serialize(&merged, &Namespaces::standard());
    let _: Option<Graph> = turtle::parse(&text).ok().map(|(g, _)| g);
    graph.merge(&merged);

    // The query engine and the parser.
    let _ = Query::parse("SELECT ?s WHERE { ?s ?p ?o . }").map(|q| q.execute(&graph));
    let mut engine = ProvQueryEngine::new(graph);
    let _: usize = engine.derive_lineage();
    let _: Vec<Guid> = engine.backward_lineage(probe);

    // `provio_workflows`: the three drivers and what they report.
    let h5 = h5bench::H5benchParams {
        ranks: 4,
        pattern: h5bench::IoPattern::WriteRead,
        seed: 1,
        mode: mode.clone(),
        ..h5bench::H5benchParams::default()
    };
    let da = dassa::DassaParams {
        n_files: 4,
        nodes: 2,
        channels: 24,
        seed: 1,
        mode: mode.clone(),
        ..dassa::DassaParams::default()
    };
    let tp = topreco::TopRecoParams {
        epochs: 2,
        n_configs: 2,
        seed: 1,
        mode,
        run_id: 0,
        ..topreco::TopRecoParams::default()
    };
    let runs: [RunMetrics; 3] = [
        h5bench::run(cluster, &h5).metrics,
        dassa::run(cluster, &da).metrics,
        topreco::run(cluster, &tp).metrics,
    ];
    let _ = RunMetrics {
        completion: runs[0].completion.saturating_add(SimDuration::from_nanos(0)),
        prov_bytes: runs[1].prov_bytes,
        prov_files: runs[2].prov_files,
        tracked_events: runs[0].tracked_events,
    };
}
