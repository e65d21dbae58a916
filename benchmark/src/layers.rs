//! Per-layer metrics: the staged replay.
//!
//! The seed's data is re-driven through each layer's public functions, one
//! layer at a time, in pipeline order — model → graph → N-Triples/Turtle →
//! frame → store → collect → file system → merge/scrub/verify → query — so
//! a regression names its layer. Round trips are asserted on the way
//! (`decode(encode(x)) == x`, `parse(render(g)) == g`). Every layer is
//! measured from outside: `Instant` around calls into public functions.
//!
//! The table in [`table`] fixes every metric's name, unit and the
//! end-to-end metric it is expected to move; `BENCHMARK.json` repeats it.

use crate::gen::{self, Stream};
use crate::ladder;
use crate::model::{self, RankModel};
use crate::pipeline::{self, Checks};
use crate::queries;
use crate::report::{Better, Measured};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Sizes, Workload};
use provio::frame::{self, Encoder, FrameKind};
use provio::verify::{RankEntry, RootCache};
use provio::{
    merge_directory, scrub_directory, verify_directory, Collector, OverloadPolicy, ProvQueryEngine,
    ProvenanceStore, RdfFormat, RetryPolicy,
};
use provio_hpcfs::{FileSystem, LustreConfig, OpTrace, TraceOp};
use provio_model::ClassSelector;
use provio_rdf::{ns, ntriples, turtle, Graph, Iri, Namespaces, Term, Triple, TriplePattern};
use provio_simrt::{NetPlan, SimTime, VirtualClock};
use provio_sparql::Query;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Triples per rendered/framed batch: what 1000 records come to.
const BATCH_TRIPLES: usize = 4096;
/// Events per store batch: 1000 records.
const BATCH_EVENTS: usize = pipeline::FLUSH_RECORDS / 2;
const DRIVERS: [&str; 3] = ["h5bench", "dassa", "topreco"];

/// One per-layer metric: name, unit, direction, and which end-to-end
/// metric on which workload it should move.
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

fn row(name: &str, unit: &'static str, better: Better, moves: &'static str) -> LayerMetric {
    LayerMetric {
        name: name.to_string(),
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, in the order they are reported.
pub fn table() -> Vec<LayerMetric> {
    use Better::{Higher, Lower};
    let cap_mem = "capture_event_p50_ns, capture_events_per_s @ capture-mem";
    let cap_dur = "capture_events_per_s, capture_event_tail_us @ capture-durable";
    let read = "merge_triples_per_s, recover_s @ posthoc";
    let query = "query_mix_s, query_ms_p90 @ posthoc";
    let mut t = vec![
        row("model.record_ns_per_event", "ns", Lower, cap_mem),
        row("model.guid_ns_per_event", "ns", Lower, cap_mem),
        row(
            "model.triples_per_event",
            "count",
            Lower,
            "prov_bytes_per_event @ all",
        ),
        row("rdf.graph.insert_ns_per_triple", "ns", Lower, cap_mem),
        row("rdf.graph.dup_ratio", "ratio", Lower, cap_mem),
        row("rdf.graph.terms_per_triple", "ratio", Lower, cap_mem),
        row("rdf.graph.merge_ns_per_triple", "ns", Lower, read),
        row("rdf.graph.match_ns_per_result", "ns", Lower, query),
        row(
            "rdf.ntriples.render_block_ns_per_triple",
            "ns",
            Lower,
            cap_dur,
        ),
        row(
            "rdf.ntriples.render_sorted_ns_per_triple",
            "ns",
            Lower,
            cap_dur,
        ),
        row(
            "rdf.ntriples.bytes_per_triple",
            "B",
            Lower,
            "prov_bytes_per_event @ capture-durable",
        ),
        row("rdf.ntriples.parse_ns_per_triple", "ns", Lower, read),
        row(
            "rdf.turtle.serialize_ns_per_triple",
            "ns",
            Lower,
            "finish_s @ capture-mem",
        ),
        row(
            "rdf.turtle.parse_ns_per_triple",
            "ns",
            Lower,
            "merge_triples_per_s @ capture-mem",
        ),
        row(
            "rdf.turtle.bytes_per_triple",
            "B",
            Lower,
            "prov_bytes_per_event @ capture-mem",
        ),
        row("core.tracker.track_io_ns_mean", "ns", Lower, cap_mem),
        row("core.tracker.track_io_sync_ns_mean", "ns", Lower, cap_mem),
        row(
            "core.tracker.p999_us",
            "us",
            Lower,
            "capture_event_tail_us @ capture-mem",
        ),
        row(
            "core.tracker.filtered_ns_per_event",
            "ns",
            Lower,
            "track_overhead_ns_per_event @ workflows",
        ),
        row(
            "core.tracker.finish_ms",
            "ms",
            Lower,
            "finish_s @ capture-mem",
        ),
        row("core.tracker.residual_ns_per_event", "ns", Lower, cap_mem),
        row("core.store.push_ns_per_triple", "ns", Lower, cap_dur),
        row("core.store.flush_ms_p50", "ms", Lower, cap_dur),
        row("core.store.flush_ms_p99", "ms", Lower, cap_dur),
        row(
            "core.store.finish_ms",
            "ms",
            Lower,
            "finish_s @ capture-durable",
        ),
        row("core.store.write_amp", "ratio", Lower, cap_dur),
        row("core.store.residual_ms_per_flush", "ms", Lower, cap_dur),
        row("core.frame.encode_ns_per_triple", "ns", Lower, cap_dur),
        row(
            "core.frame.overhead_bytes_pct",
            "%",
            Lower,
            "prov_bytes_per_event @ capture-durable",
        ),
        row("core.frame.decode_ns_per_triple", "ns", Lower, read),
        row("core.frame.decode_wal_ns_per_triple", "ns", Lower, read),
    ];
    for plane in ladder::PLANES {
        t.push(row(
            &format!("plane.{}_overhead_pct", plane.name),
            "%",
            Lower,
            "capture_events_per_s @ capture-durable; none @ capture-mem",
        ));
    }
    t.extend([
        row(
            "core.collect.send_ns_per_batch",
            "ns",
            Lower,
            "plane.stream_overhead_pct",
        ),
        row(
            "core.collect.fold_ns_per_triple",
            "ns",
            Lower,
            "plane.stream_overhead_pct",
        ),
        row("hpcfs.commit_mbps", "MB/s", Higher, cap_dur),
        row("hpcfs.read_mbps", "MB/s", Higher, read),
        row("hpcfs.ops_per_flush", "count", Lower, cap_dur),
        row("hpcfs.bytes_written_per_event", "B", Lower, cap_dur),
        row(
            "core.merge.merge_s",
            "s",
            Lower,
            "merge_triples_per_s @ posthoc",
        ),
        row(
            "core.merge.files",
            "count",
            Lower,
            "merge_triples_per_s @ posthoc",
        ),
        row(
            "core.merge.replayed_triples",
            "count",
            Lower,
            "merge_triples_per_s @ posthoc",
        ),
        row(
            "core.merge.residual_s",
            "s",
            Lower,
            "merge_triples_per_s @ posthoc",
        ),
        row("core.scrub.clean_s", "s", Lower, "recover_s @ posthoc"),
        row("core.scrub.repair_s", "s", Lower, "recover_s @ posthoc"),
        row(
            "core.verify.seal_ms",
            "ms",
            Lower,
            "finish_s @ capture-durable",
        ),
        row("core.verify.verify_s", "s", Lower, "recover_s @ posthoc"),
        row("sparql.parse_us_p50", "us", Lower, query),
    ]);
    for q in queries::mix("urn:provio:x", None) {
        t.push(row(
            &format!("sparql.execute_ms.{}", q.name),
            "ms",
            Lower,
            query,
        ));
    }
    t.extend([
        row("core.engine.new_ms", "ms", Lower, query),
        row("core.engine.derive_lineage_ms", "ms", Lower, query),
        row("core.engine.backward_lineage_ms", "ms", Lower, query),
    ]);
    let wf = "track_overhead_ns_per_event, capture_events_per_s @ workflows";
    for d in DRIVERS {
        t.push(row(&format!("workflows.{d}.wall_off_s"), "s", Lower, wf));
        t.push(row(&format!("workflows.{d}.wall_on_s"), "s", Lower, wf));
        t.push(row(&format!("workflows.{d}.events"), "count", Lower, wf));
        t.push(row(
            &format!("workflows.{d}.filtered_events"),
            "count",
            Lower,
            wf,
        ));
        t.push(row(&format!("workflows.{d}.ns_per_event"), "ns", Lower, wf));
        t.push(row(&format!("workflows.{d}.overhead_pct"), "%", Lower, wf));
    }
    for layer in SPAN_LAYERS {
        t.push(row(
            &format!("span.{layer}.self_s"),
            "s",
            Lower,
            "wall_s @ the traced workload",
        ));
    }
    t.push(row(
        "trace_overhead_pct",
        "%",
        Lower,
        "none: cost of recording spans",
    ));
    t
}

/// Layers whose span self time is reported per traced workload.
pub const SPAN_LAYERS: [&str; 8] = [
    "core.tracker",
    "core.merge",
    "core.engine",
    "sparql",
    "core.scrub",
    "core.verify",
    "workflows",
    "benchmark",
];

/// `(name, unit, better)` of every per-layer metric, for the manifest.
pub fn metric_names() -> Vec<(String, &'static str, Better)> {
    table()
        .into_iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect()
}

/// Samples collected per metric name.
#[derive(Default)]
pub struct Rows {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Rows {
    pub fn add(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| stats::median(v))
    }

    /// Every metric of [`table`], in table order. A metric nothing was
    /// recorded for is a bug in this file.
    pub fn finish(self) -> Vec<Measured> {
        table()
            .into_iter()
            .map(|m| {
                let v = self
                    .samples
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("no samples recorded for layer metric {}", m.name));
                Measured::new(m.name, m.unit, stats::summarize(v))
            })
            .collect()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn ns_per(secs: f64, n: usize) -> f64 {
    secs * 1e9 / n.max(1) as f64
}

/// The triples of a stream in store-sized batches (1000 records each),
/// agents in the first.
fn event_batches(stream: &Stream) -> Vec<Vec<Triple>> {
    let (mut m, mut batch) = RankModel::new(stream.rank);
    let mut out = Vec::new();
    for (i, e) in stream.events.iter().enumerate() {
        m.event_triples(e, &mut batch);
        if (i + 1) % BATCH_EVENTS == 0 {
            out.push(std::mem::take(&mut batch));
        }
    }
    if !batch.is_empty() {
        out.push(batch);
    }
    out
}

fn read_text(fs: &Arc<FileSystem>, path: &str) -> String {
    let ino = fs.lookup(path).expect("file exists");
    let size = fs.stat(path).expect("stat").size;
    String::from_utf8(fs.read_at(ino, 0, size).expect("read").to_vec()).expect("utf-8 store file")
}

/// model, rdf.graph, rdf.ntriples, rdf.turtle, core.frame.
fn codec_layers(streams: &[Stream], rows: &mut Rows, checks: &mut Checks) {
    let mut rank_graphs = Vec::new();
    for s in streams {
        // model
        let (guid_model, _) = RankModel::new(s.rank);
        let ((), secs) = timed(|| {
            for e in &s.events {
                black_box(guid_model.guids(e));
            }
        });
        rows.add("model.guid_ns_per_event", ns_per(secs, s.events.len()));
        let (triples, secs) = timed(|| model::stream_triples(s));
        rows.add("model.record_ns_per_event", ns_per(secs, s.events.len()));
        rows.add(
            "model.triples_per_event",
            triples.len() as f64 / s.events.len() as f64,
        );

        // rdf.graph
        let mut g = Graph::new();
        let ((), secs) = timed(|| {
            for t in &triples {
                g.insert(t);
            }
        });
        rows.add(
            "rdf.graph.insert_ns_per_triple",
            ns_per(secs, triples.len()),
        );
        rows.add(
            "rdf.graph.dup_ratio",
            1.0 - g.len() as f64 / triples.len() as f64,
        );
        rows.add(
            "rdf.graph.terms_per_triple",
            g.term_count() as f64 / g.len() as f64,
        );
        let pat = TriplePattern::any()
            .with_predicate(Iri::new(ns::RDF_TYPE))
            .with_object(Term::iri(format!("{}Write", ns::PROVIO)));
        let (hits, secs) = timed(|| g.match_pattern(&pat));
        rows.add("rdf.graph.match_ns_per_result", ns_per(secs, hits.len()));

        // rdf.ntriples + core.frame, batch by batch.
        let fingerprint = pipeline::graph_fingerprint(&g);
        let term_of = |id: u32| &g.terms()[id as usize];
        let guid = frame::store_guid("/lab/store.nt");
        let mut reparsed = Graph::new();
        for (ordinal, ids) in g.ids_from(0).chunks(BATCH_TRIPLES).enumerate() {
            let (block, secs) = timed(|| ntriples::id_block(ids, term_of));
            rows.add(
                "rdf.ntriples.render_block_ns_per_triple",
                ns_per(secs, ids.len()),
            );
            rows.add(
                "rdf.ntriples.bytes_per_triple",
                block.len() as f64 / ids.len() as f64,
            );
            let (lines, secs) = timed(|| ntriples::sorted_id_lines(ids, term_of));
            rows.add(
                "rdf.ntriples.render_sorted_ns_per_triple",
                ns_per(secs, ids.len()),
            );
            black_box(lines);
            let (parsed, secs) = timed(|| ntriples::parse_into(&block, &mut reparsed));
            rows.add("rdf.ntriples.parse_ns_per_triple", ns_per(secs, ids.len()));
            checks.check(parsed.is_ok(), || {
                "rendered N-Triples block did not parse".into()
            });

            let ((framed, _, _), secs) = timed(|| {
                let mut enc =
                    Encoder::new(FrameKind::Delta, guid, ordinal as u64, frame::CHAIN_START);
                enc.reserve(block.len());
                enc.batch_block(&block, ids.len());
                enc.finish_with_root()
            });
            rows.add("core.frame.encode_ns_per_triple", ns_per(secs, ids.len()));
            rows.add(
                "core.frame.overhead_bytes_pct",
                (framed.len() as f64 / block.len() as f64 - 1.0) * 100.0,
            );
            let text = String::from_utf8(framed).expect("frames are text");
            let (decoded, secs) = timed(|| frame::decode(&text));
            rows.add("core.frame.decode_ns_per_triple", ns_per(secs, ids.len()));
            checks.check(
                decoded
                    .as_ref()
                    .is_ok_and(|f| f.intact() && f.payload == block),
                || "decode(encode(block)) != block".into(),
            );
        }
        checks.equal(
            "parse(render(graph)) fingerprint",
            pipeline::graph_fingerprint(&reparsed),
            fingerprint,
        );

        // rdf.turtle
        let (text, secs) = timed(|| turtle::serialize(&g, &Namespaces::standard()));
        rows.add("rdf.turtle.serialize_ns_per_triple", ns_per(secs, g.len()));
        rows.add(
            "rdf.turtle.bytes_per_triple",
            text.len() as f64 / g.len() as f64,
        );
        let (parsed, secs) = timed(|| turtle::parse(&text));
        rows.add("rdf.turtle.parse_ns_per_triple", ns_per(secs, g.len()));
        checks.check(
            parsed.is_ok_and(|(p, _)| pipeline::graph_fingerprint(&p) == fingerprint),
            || "turtle parse(serialize(graph)) != graph".into(),
        );
        rank_graphs.push(g);
    }
    // Graph::merge of the rank sub-graphs, as the directory merge folds them.
    let mut merged = Graph::new();
    for g in &rank_graphs {
        let (_, secs) = timed(|| merged.merge(g));
        rows.add("rdf.graph.merge_ns_per_triple", ns_per(secs, g.len()));
    }
}

/// core.tracker: the default-configuration tracker over each stream, the
/// same with a synchronous store (graph insertion on the tracking thread,
/// which is what the residual is taken against), and the filtered path
/// under the Top Reco selector.
fn tracker_layer(streams: &[Stream], rows: &mut Rows, checks: &mut Checks) {
    let mut off = Tracer::new("lab", false);
    let mean_ns = |latencies_ns: &[u32]| {
        latencies_ns.iter().map(|&x| u64::from(x)).sum::<u64>() as f64
            / latencies_ns.len().max(1) as f64
    };
    let mut pooled = Vec::new();
    for s in streams {
        let one = std::slice::from_ref(s);
        let fs = FileSystem::new(LustreConfig::default());
        let captured = pipeline::capture(&fs, &pipeline::mem_config().shared(), one, &mut off);
        pipeline::check_summaries(&captured.summaries, s.events.len() as u64, None, checks);
        rows.add(
            "core.tracker.track_io_ns_mean",
            mean_ns(&captured.latencies_ns),
        );
        rows.add("core.tracker.finish_ms", captured.finish_s * 1e3);
        pooled.extend(captured.latencies_ns);

        let fs = FileSystem::new(LustreConfig::default());
        let cfg = pipeline::mem_config().synchronous().shared();
        let captured = pipeline::capture(&fs, &cfg, one, &mut off);
        pipeline::check_summaries(&captured.summaries, s.events.len() as u64, None, checks);
        rows.add(
            "core.tracker.track_io_sync_ns_mean",
            mean_ns(&captured.latencies_ns),
        );

        let fs = FileSystem::new(LustreConfig::default());
        let cfg = pipeline::mem_config()
            .with_selector(ClassSelector::topreco())
            .shared();
        let captured = pipeline::capture(&fs, &cfg, one, &mut off);
        checks.equal(
            "events kept by the Top Reco selector",
            captured
                .summaries
                .iter()
                .map(|(_, s)| s.events)
                .sum::<u64>(),
            0,
        );
        rows.add(
            "core.tracker.filtered_ns_per_event",
            mean_ns(&captured.latencies_ns),
        );
    }
    rows.add(
        "core.tracker.p999_us",
        workloads::call_stats(&pooled, false).1,
    );
    // What `track_io` costs beyond building the records and inserting
    // their triples, with both on the tracking thread.
    let residual = rows.median("core.tracker.track_io_sync_ns_mean")
        - rows.median("model.record_ns_per_event")
        - rows.median("rdf.graph.insert_ns_per_triple") * rows.median("model.triples_per_event");
    rows.add("core.tracker.residual_ns_per_event", residual);
}

/// hpcfs: commit-sized tmp+rename commits and whole-file reads.
fn hpcfs_layer(rows: &mut Rows) {
    const COMMIT_BYTES: usize = 512 * 1024;
    const ROUNDS: usize = 32;
    let fs = FileSystem::new(LustreConfig::default());
    fs.mkdir_all("/lab", "bench", SimTime::ZERO).expect("mkdir");
    let buf: Vec<u8> = (0..COMMIT_BYTES).map(|i| (i % 251) as u8).collect();
    for i in 0..ROUNDS {
        let (tmp, dst) = (format!("/lab/c{i}.tmp"), format!("/lab/c{i}"));
        let ((), secs) = timed(|| {
            let ino = fs
                .create_file(&tmp, false, "bench", SimTime::ZERO)
                .expect("create");
            fs.write_at(ino, 0, &buf, SimTime::ZERO).expect("write");
            fs.rename(&tmp, &dst, SimTime::ZERO).expect("rename");
        });
        rows.add("hpcfs.commit_mbps", COMMIT_BYTES as f64 / 1e6 / secs);
        let ino = fs.lookup(&dst).expect("committed");
        let (data, secs) = timed(|| fs.read_at(ino, 0, COMMIT_BYTES as u64).expect("read"));
        rows.add("hpcfs.read_mbps", data.len() as f64 / 1e6 / secs);
    }
}

/// core.store and core.frame's journal decoder: the durable store driven
/// directly with the streams' batches, with an `OpTrace` counting what
/// reaches the file system.
fn store_layer(streams: &[Stream], rows: &mut Rows, checks: &mut Checks) {
    let mut flush_ms = Vec::new();
    for s in streams {
        let batches = event_batches(s);
        let fs = FileSystem::new(LustreConfig::default());
        let trace = OpTrace::new();
        fs.attach_tracer(Arc::clone(&trace));
        let path = format!("/lab/prov_p{}.nt", gen::pid(s.rank));
        let store = pipeline::durable_store(&fs, &path);
        let mut ops_in_flushes = 0;
        for b in &batches {
            let batch = b.clone();
            let ((), secs) = timed(|| store.push(batch, None));
            rows.add("core.store.push_ns_per_triple", ns_per(secs, b.len()));
            let before = trace.len();
            let ((), secs) = timed(|| store.flush(None));
            flush_ms.push((secs * 1e6) as u64);
            ops_in_flushes += trace.len() - before;
        }
        let (bytes, secs) = timed(|| store.finish(None));
        rows.add("core.store.finish_ms", secs * 1e3);
        checks.check(bytes > 0 && !store.degraded(), || {
            format!("lab store {path} degraded")
        });
        let written: u64 = trace
            .snapshot()
            .iter()
            .map(|op| match op {
                TraceOp::WriteAt { data, .. } => data.len() as u64,
                _ => 0,
            })
            .sum();
        rows.add("core.store.write_amp", written as f64 / bytes as f64);
        rows.add(
            "hpcfs.ops_per_flush",
            ops_in_flushes as f64 / batches.len() as f64,
        );
        rows.add(
            "hpcfs.bytes_written_per_event",
            written as f64 / s.events.len() as f64,
        );

        // A journal generation that is never flushed, for the WAL decoder.
        let wal_fs = FileSystem::new(LustreConfig::default());
        let wal_store = pipeline::durable_store(&wal_fs, &path);
        let mut journaled = 0;
        for b in batches.iter().take(2) {
            journaled += b.len();
            wal_store.push(b.clone(), None);
        }
        wal_store.wal_sync();
        let text = read_text(&wal_fs, &format!("{path}.w000000.nt"));
        let (wal, secs) = timed(|| frame::decode_wal(&text, frame::store_guid(&path)));
        rows.add(
            "core.frame.decode_wal_ns_per_triple",
            ns_per(secs, wal.records.len()),
        );
        checks.check(
            !wal.truncated
                && wal.records.len() as u64 == wal_store.wal_records()
                && wal.records.len() <= journaled,
            || {
                format!(
                    "journal decode lost records: {} of {journaled}",
                    wal.records.len()
                )
            },
        );
    }
    rows.add(
        "core.store.flush_ms_p50",
        stats::percentile(&mut flush_ms, 500) as f64 / 1e3,
    );
    rows.add(
        "core.store.flush_ms_p99",
        stats::percentile(&mut flush_ms, 990) as f64 / 1e3,
    );
    // What a flush costs beyond rendering, framing and writing its batch.
    let per_batch = |name: &str| rows.median(name) * BATCH_TRIPLES as f64 / 1e6;
    let write_ms = rows.median("rdf.ntriples.bytes_per_triple") * BATCH_TRIPLES as f64
        / (rows.median("hpcfs.commit_mbps") * 1e3);
    let residual = rows.median("core.store.flush_ms_p50")
        - per_batch("rdf.ntriples.render_sorted_ns_per_triple")
        - per_batch("core.frame.encode_ns_per_triple")
        - write_ms;
    rows.add("core.store.residual_ms_per_flush", residual);
}

/// core.collect: the sender-side handshake and the collector's lazy fold.
fn collect_layer(streams: &[Stream], rows: &mut Rows, checks: &mut Checks) {
    for s in streams {
        let fs = FileSystem::new(LustreConfig::default());
        let path = format!("/lab/prov_p{}.nt", gen::pid(s.rank));
        let store = ProvenanceStore::new(Arc::clone(&fs), &path, RdfFormat::NTriples, false)
            .with_wal(true, pipeline::WAL_GROUP);
        let collector = Collector::new(Arc::clone(&fs), "/lab", NetPlan::ideal(s.rank as u64));
        let client = collector.client_with(
            s.rank,
            VirtualClock::new(),
            RetryPolicy::default(),
            10_000_000,
            64,
            OverloadPolicy::Block,
        );
        let mut sent = 0;
        for b in event_batches(s) {
            store.push(b.clone(), None);
            sent += b.len();
            let ((), secs) = timed(|| {
                store.wal_sync();
                client.send(b);
            });
            rows.add("core.collect.send_ns_per_batch", secs * 1e9);
            store.flush(None);
        }
        store.finish(None);
        let stats = client.drain(64);
        checks.equal("unacked streamed batches", stats.unacked_batches, 0);
        let (live, secs) = timed(|| collector.graph());
        rows.add("core.collect.fold_ns_per_triple", ns_per(secs, sent));
        let (ground, _) = merge_directory(&fs, "/lab");
        checks.equal(
            "live stream vs post-hoc merge",
            pipeline::graph_fingerprint(&live),
            pipeline::graph_fingerprint(&ground),
        );
    }
}

/// core.verify, core.scrub, core.merge, sparql, core.engine: one sealed
/// durable directory (trackers + a crashed writer), read back tier by tier.
fn directory_layers(
    seed: u64,
    streams: &[Stream],
    crash: &Stream,
    rows: &mut Rows,
    checks: &mut Checks,
) {
    let mut off = Tracer::new("lab", false);
    let dir = pipeline::STORE_DIR;
    let fs = FileSystem::new(LustreConfig::default());
    let cfg = pipeline::durable_config().shared();
    let flushed = crash.events.len() * 2 / 3;
    let _crashed = pipeline::crashed_writer(&fs, crash, flushed);
    let captured = pipeline::capture(&fs, &cfg, streams, &mut off);
    let summaries = &captured.summaries;
    let all: Vec<&Stream> = streams.iter().chain([crash]).collect();
    let x = gen::expected(&all);

    // The seal as `finish_all` ran it: same ranks, same commit-time roots.
    let ranks: Vec<RankEntry> = summaries
        .iter()
        .map(|(pid, s)| RankEntry {
            pid: *pid,
            degraded: s.degraded,
            triples: s.triples,
        })
        .collect();
    let mut roots = RootCache::new();
    for s in streams {
        if let Some(t) = captured.registry.get(gen::pid(s.rank)) {
            for (path, n, root) in t.store().committed_roots() {
                roots.insert(path, (n, root));
            }
        }
    }
    for _ in 0..5 {
        let (sealed, secs) =
            timed(|| provio::verify::seal_run_with_roots(&fs, dir, pipeline::KEY, &ranks, &roots));
        rows.add("core.verify.seal_ms", secs * 1e3);
        checks.check(sealed.is_ok(), || format!("re-seal failed: {sealed:?}"));
    }

    // The read tiers are idempotent on a clean directory: three passes
    // each, so the rows are medians and not one cold call.
    let mut merged = None;
    for _ in 0..3 {
        let (scrub, secs) = timed(|| scrub_directory(&fs, dir));
        rows.add("core.scrub.clean_s", secs);
        checks.check(scrub.is_clean(), || {
            format!("clean lab directory needed repair: {scrub}")
        });
        let (audit, secs) = timed(|| verify_directory(&fs, dir, pipeline::KEY));
        rows.add("core.verify.verify_s", secs);
        checks.check(audit.is_trusted(), || "lab directory is not trusted".into());
        let (out, secs) = timed(|| merge_directory(&fs, dir));
        rows.add("core.merge.merge_s", secs);
        rows.add("core.merge.files", out.1.files as f64);
        rows.add("core.merge.replayed_triples", out.1.replayed_triples as f64);
        merged = Some(out);
    }
    let (graph, report) = merged.expect("three passes ran");
    let merge_s = rows.median("core.merge.merge_s");
    checks.equal("lab merged triples", graph.len() as u64, x.merged_triples);
    checks.equal(
        "lab replayed triples",
        report.replayed_triples as u64,
        pipeline::crashed_writer_replayed(crash, flushed),
    );
    // What the merge costs beyond reading, decoding, parsing and folding.
    let (bytes, _) = pipeline::directory_digest(&fs, dir);
    let n = graph.len() as f64;
    let per_triple = |name: &str| rows.median(name) * n / 1e9;
    let residual = merge_s
        - bytes as f64 / 1e6 / rows.median("hpcfs.read_mbps")
        - per_triple("core.frame.decode_ns_per_triple")
        - per_triple("rdf.ntriples.parse_ns_per_triple")
        - per_triple("rdf.graph.merge_ns_per_triple");
    rows.add("core.merge.residual_s", residual);

    // One rotted member, repaired from parity.
    let rotted = pipeline::rot_member(&fs, dir, 0, seed);
    checks.check(rotted.is_some(), || {
        "lab directory has nothing parity-protected".into()
    });
    let (scrub, secs) = timed(|| scrub_directory(&fs, dir));
    rows.add("core.scrub.repair_s", secs);
    checks.equal("lab files repaired", scrub.repaired_files.len(), 1);

    // sparql + core.engine over the merged graph.
    let probe = x.probe.guid();
    let mix = queries::mix(probe.as_str(), Some(&x));
    for _ in 0..9 {
        for q in &mix {
            let (parsed, secs) = timed(|| Query::parse(&q.text));
            rows.add("sparql.parse_us_p50", secs * 1e6);
            black_box(parsed.is_ok());
        }
    }
    for q in &mix {
        let parsed = Query::parse(&q.text).expect("mix queries parse");
        for _ in 0..3 {
            let (sols, secs) = timed(|| parsed.execute(&graph));
            rows.add(&format!("sparql.execute_ms.{}", q.name), secs * 1e3);
            checks.equal(q.name, Some(sols.len() as u64), q.rows);
        }
    }
    let (mut engine, secs) = timed(|| ProvQueryEngine::new(graph));
    rows.add("core.engine.new_ms", secs * 1e3);
    let (edges, secs) = timed(|| engine.derive_lineage());
    rows.add("core.engine.derive_lineage_ms", secs * 1e3);
    checks.equal("lab lineage edges", edges as u64, x.lineage_edges);
    for _ in 0..5 {
        let (lineage, secs) = timed(|| engine.backward_lineage(&probe));
        rows.add("core.engine.backward_lineage_ms", secs * 1e3);
        checks.equal(
            "lab backward lineage",
            lineage.len() as u64,
            x.probe_lineage,
        );
    }
}

/// workflows.<driver>.*: the three paper drivers at a fixed reduced scale,
/// untracked, under their paper selector, and once under `all()` to count
/// what the selector filtered.
fn driver_layer(seed: u64, divisor: usize, rows: &mut Rows, checks: &mut Checks) {
    let mut off = Tracer::new("lab", false);
    let inputs = workloads::setup(Workload::Workflows, seed, divisor * 4);
    // One discarded pass: a driver's first run in a process is several
    // times its steady cost.
    workloads::run_drivers(&inputs, false, None, &mut off);
    let paper = workloads::run_drivers(&inputs, false, None, &mut off);
    let everything = workloads::run_drivers(&inputs, true, Some(ClassSelector::all()), &mut off);
    for ((d, _), (all, _)) in paper.iter().zip(&everything) {
        let name = d.name;
        rows.add(&format!("workflows.{name}.wall_off_s"), d.wall_off_s);
        rows.add(&format!("workflows.{name}.wall_on_s"), d.wall_on_s);
        rows.add(&format!("workflows.{name}.events"), d.events as f64);
        rows.add(
            &format!("workflows.{name}.filtered_events"),
            all.events.saturating_sub(d.events) as f64,
        );
        rows.add(
            &format!("workflows.{name}.ns_per_event"),
            (d.wall_on_s - d.wall_off_s) * 1e9 / d.events.max(1) as f64,
        );
        rows.add(
            &format!("workflows.{name}.overhead_pct"),
            (d.completion_on_s / d.completion_off_s - 1.0) * 100.0,
        );
        checks.check(d.events > 0, || format!("{name} tracked nothing"));
    }
}

/// Everything the staged replay measures, for one seed.
pub struct Replay {
    pub rows: Rows,
    pub ladder: ladder::Outcome,
}

/// Run the staged replay. `ladder_rounds` interleaved rounds of the plane
/// ladder are run (at least [`ladder::MIN_ROUNDS`]).
pub fn replay(seed: u64, divisor: usize, ladder_rounds: usize, checks: &mut Checks) -> Replay {
    let z = Sizes::of(Workload::CaptureDurable, divisor);
    let streams = gen::generate(seed, z.ranks, z.events_per_rank);
    let crash = gen::stream(seed, z.ranks, z.events_per_rank);
    let mut rows = Rows::default();
    codec_layers(&streams, &mut rows, checks);
    tracker_layer(&streams, &mut rows, checks);
    hpcfs_layer(&mut rows);
    store_layer(&streams, &mut rows, checks);
    collect_layer(&streams, &mut rows, checks);
    directory_layers(seed, &streams, &crash, &mut rows, checks);
    driver_layer(seed, divisor, &mut rows, checks);
    // The ladder's own stream: one rank, twice the events, so a rung runs
    // long enough for a ratio of two rungs to mean something.
    let ladder_stream = gen::stream(seed, 0, z.events_per_rank * 2);
    let outcome = ladder::run(&ladder_stream, ladder_rounds, checks);
    for p in &outcome.planes {
        for v in &p.overhead_pct {
            rows.add(&format!("plane.{}_overhead_pct", p.name), *v);
        }
    }
    Replay {
        rows,
        ladder: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_are_unique_and_within_the_contract() {
        let t = table();
        assert!(t.len() <= 128, "{} per-layer metrics", t.len());
        let mut names: Vec<&str> = t.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), t.len());
        for m in &t {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
