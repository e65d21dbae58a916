//! The pipeline stages every workload passes through — capture, finish,
//! merge, query, recover — each timed from outside with a span around the
//! call into the program, and each followed by its output checks.

use crate::gen::{self, Stream};
use crate::model;
use crate::queries::{self, MixQuery};
use crate::stats;
use crate::trace::Tracer;
use provio::{
    merge_directory, recover_all, repairable_paths, ProvIoConfig, ProvQueryEngine, ProvTracker,
    ProvenanceStore, RdfFormat, SerializationPolicy, TrackSummary, TrackerRegistry,
};
use provio_hpcfs::{CorruptKind, FileSystem};
use provio_model::{ClassSelector, Guid, Relation};
use provio_rdf::{ntriples, Graph, Iri, Subject, TriplePattern};
use provio_simrt::VirtualClock;
use std::sync::Arc;
use std::time::Instant;

pub const STORE_DIR: &str = "/provio";
pub const KEY: &str = "pipeline-benchmark-key";
/// Records between periodic flushes in the durable configuration.
pub const FLUSH_RECORDS: usize = 1000;
pub const WAL_GROUP: u32 = 64;
pub const PARITY_GROUP: u32 = 16;

/// The paper's default configuration, tracking every class, with the
/// calibrated virtual per-record latency off so real time is what shows.
pub fn mem_config() -> ProvIoConfig {
    ProvIoConfig::default()
        .with_selector(ClassSelector::all())
        .with_record_latency_ns(0)
        .with_store_dir(STORE_DIR)
}

/// Every durability plane on: periodic synchronous flushes of framed
/// N-Triples delta segments, write-ahead journal, parity, signed manifest.
pub fn durable_config() -> ProvIoConfig {
    mem_config()
        .with_policy(SerializationPolicy::EveryRecords(FLUSH_RECORDS))
        .with_format(RdfFormat::NTriples)
        .synchronous()
        .with_checksums(true)
        .with_wal(true, WAL_GROUP)
        .with_parity(true, PARITY_GROUP)
        .with_manifest(true)
        .with_manifest_key(KEY)
}

/// Failed and attempted output checks of one repetition.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// One check worth `weight` operations (e.g. the events a count covers).
    pub fn weigh(&mut self, weight: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += weight;
        if !ok {
            self.failed += weight;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.weigh(1, ok, what);
    }

    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, got: T, want: T) {
        self.check(got == want, || {
            format!("{name}: got {got:?}, expected {want:?}")
        });
    }

    /// Share of the checked operations that passed, percent.
    pub fn passed_pct(&self) -> f64 {
        (self.attempted - self.failed) as f64 * 100.0 / self.attempted.max(1) as f64
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(16);
    }
}

/// One capture stage: trackers driven over their streams and finished.
pub struct Captured {
    pub registry: Arc<TrackerRegistry>,
    pub events: u64,
    /// ns per `track_io` call, all ranks, in call order.
    pub latencies_ns: Vec<u32>,
    /// The first `track_io` call to `finish_all`'s return, one uninterrupted
    /// interval: whatever the asynchronous store still owes when the last
    /// event returns is paid inside it.
    pub capture_s: f64,
    /// The `finish_all` part of that interval: final serialization,
    /// compaction and (when armed) the seal.
    pub finish_s: f64,
    pub summaries: Vec<(u32, TrackSummary)>,
}

/// Drive one `ProvTracker` per rank over its stream, one rank after another
/// on this thread, then `finish_all`.
pub fn capture(
    fs: &Arc<FileSystem>,
    cfg: &Arc<ProvIoConfig>,
    streams: &[Stream],
    tr: &mut Tracer,
) -> Captured {
    capture_with(fs, cfg, streams, tr, |_| {})
}

/// [`capture`], with `attach` called on every tracker before its first
/// event (the streamed ladder rung arms its net client there).
pub fn capture_with(
    fs: &Arc<FileSystem>,
    cfg: &Arc<ProvIoConfig>,
    streams: &[Stream],
    tr: &mut Tracer,
    attach: impl Fn(&ProvTracker),
) -> Captured {
    let registry = TrackerRegistry::new();
    let trackers: Vec<Arc<ProvTracker>> = streams
        .iter()
        .map(|s| {
            let t = ProvTracker::new(
                Arc::clone(cfg),
                Arc::clone(fs),
                gen::pid(s.rank),
                gen::USER,
                &gen::program(s.rank),
                VirtualClock::new(),
            );
            registry.register(gen::pid(s.rank), Arc::clone(&t));
            attach(&t);
            t
        })
        .collect();
    let events: usize = streams.iter().map(|s| s.events.len()).sum();
    let mut latencies_ns = Vec::with_capacity(events);

    // Nothing of the benchmark's own runs between here and the return of
    // `finish_all` except one clock read per call (a call's latency is the
    // gap between two reads) and, when recording, the span bookkeeping.
    let all = tr.begin("core.tracker", "capture", None);
    let started = Instant::now();
    let mut last = started;
    for (s, tracker) in streams.iter().zip(&trackers) {
        let (rank_started, from) = (last, latencies_ns.len());
        for e in &s.events {
            tracker.track_io(e);
            let now = Instant::now();
            latencies_ns.push((now - last).as_nanos().min(u128::from(u32::MAX)) as u32);
            last = now;
        }
        tr.aggregate(
            "core.tracker",
            "track_io",
            s.rank,
            rank_started,
            &latencies_ns[from..],
        );
    }
    let open = tr.begin("core.tracker", "finish_all", None);
    let finishing = Instant::now();
    let summaries = registry.finish_all();
    let done = Instant::now();
    tr.end(open);
    tr.end(all);
    Captured {
        registry,
        events: events as u64,
        latencies_ns,
        capture_s: (done - started).as_secs_f64(),
        finish_s: (done - finishing).as_secs_f64(),
        summaries,
    }
}

/// Σ summaries must match the generator, and no store may have lost or
/// shed anything.
pub fn check_summaries(
    summaries: &[(u32, TrackSummary)],
    events: u64,
    emitted_triples: Option<u64>,
    checks: &mut Checks,
) {
    let sum = |f: fn(&TrackSummary) -> u64| summaries.iter().map(|(_, s)| f(s)).sum::<u64>();
    checks.equal("tracked events", sum(|s| s.events), events);
    if let Some(want) = emitted_triples {
        checks.equal("emitted triples", sum(|s| s.triples), want);
    }
    for (pid, s) in summaries {
        checks.check(
            !s.degraded && s.dropped_flushes == 0 && s.shed_batches == 0 && s.store_bytes > 0,
            || format!("store of pid {pid} degraded, dropped, shed or empty: {s:?}"),
        );
    }
}

/// A synchronous store with the durable configuration's planes, driven
/// directly (no tracker): what [`durable_config`] gives every rank.
pub fn durable_store(fs: &Arc<FileSystem>, path: &str) -> ProvenanceStore {
    ProvenanceStore::new(Arc::clone(fs), path, RdfFormat::NTriples, false)
        .with_checksums(true)
        .with_wal(true, WAL_GROUP)
        .with_parity(true, PARITY_GROUP)
}

/// Rot one parity-protected committed member of `dir` in place (three bit
/// flips); `index` picks the victim among the sorted candidates. A member,
/// not a parity file: parity protects members, and a parity file whose own
/// member records rot is only reported. Returns the victim, if any.
pub fn rot_member(fs: &Arc<FileSystem>, dir: &str, index: u64, seed: u64) -> Option<String> {
    let mut victims: Vec<String> = repairable_paths(fs, dir)
        .into_iter()
        .filter(|p| !provio::frame::is_parity_path(p))
        .collect();
    victims.sort();
    let victim = victims.get(index as usize % victims.len().max(1))?;
    let kind = CorruptKind::BitFlips { count: 3 };
    let hit = fs.corrupt_at_rest(victim, &kind, seed ^ index);
    hit.is_ok_and(|n| n > 0).then(|| victim.clone())
}

/// A writer that crashed mid-run, for the posthoc workload: a store driven
/// directly (durable configuration) with the model-built triples of
/// `stream`. The first `flushed_events` are flushed every
/// [`FLUSH_RECORDS`] records; the rest reach only the write-ahead journal —
/// so live delta segments plus one journal generation remain, never
/// finished. Returned so it outlives the read side.
pub fn crashed_writer(
    fs: &Arc<FileSystem>,
    stream: &Stream,
    flushed_events: usize,
) -> ProvenanceStore {
    let path = format!("{STORE_DIR}/prov_p{}.nt", gen::pid(stream.rank));
    let store = durable_store(fs, &path);
    let (mut rank_model, mut batch) = model::RankModel::new(stream.rank);
    for (i, e) in stream.events.iter().enumerate() {
        rank_model.event_triples(e, &mut batch);
        // Two records per event.
        if i < flushed_events && (i + 1) % (FLUSH_RECORDS / 2) == 0 {
            store.push(std::mem::take(&mut batch), None);
            store.flush(None);
        }
    }
    // The tail: journaled, forced out of the group buffer, never flushed.
    store.push(batch, None);
    store.wal_sync();
    store
}

/// Triples the merge must replay from the crashed writer's journal: those
/// of the unflushed tail that no committed file already holds — neither
/// the writer's own flushed batches nor (the shared User node) the files of
/// the ranks that finished.
pub fn crashed_writer_replayed(stream: &Stream, flushed_events: usize) -> u64 {
    let flushed = flushed_events / (FLUSH_RECORDS / 2) * (FLUSH_RECORDS / 2);
    let (mut rank_model, mut triples) = model::RankModel::new(stream.rank);
    let mut graph = Graph::new();
    for t in model::RankModel::new(0).1 {
        graph.insert(&t);
    }
    let mut replayed = 0;
    for (i, e) in stream.events.iter().enumerate() {
        rank_model.event_triples(e, &mut triples);
        for t in triples.drain(..) {
            replayed += u64::from(graph.insert(&t) && i >= flushed);
        }
    }
    replayed
}

/// Total bytes and a content digest of every file under `dir`.
pub fn directory_digest(fs: &Arc<FileSystem>, dir: &str) -> (u64, u64) {
    let mut bytes = 0;
    let mut digest = 0u64;
    for path in fs.walk_files(dir).unwrap_or_default() {
        let Ok(ino) = fs.lookup(&path) else { continue };
        let size = fs.stat(&path).map_or(0, |m| m.size);
        let data = fs.read_at(ino, 0, size).unwrap_or_default();
        bytes += size;
        digest = digest
            .rotate_left(7)
            .wrapping_add(provio::frame::fnv1a64(path.as_bytes()))
            .wrapping_add(provio::frame::fnv1a64(&data).rotate_left(29));
    }
    (bytes, digest)
}

/// Order-independent 64-bit fingerprint of a graph's triples: each distinct
/// term is rendered and hashed once, each triple mixes its three term
/// hashes, and the mixes are summed. Cheap enough to take after every
/// merge and every recovery; the SHA-256 is taken once per run.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let term: Vec<u64> = graph
        .terms()
        .iter()
        .map(|t| provio::frame::fnv1a64(ntriples::render_term(t).as_bytes()))
        .collect();
    graph.iter_ids().fold(0u64, |acc, (s, p, o)| {
        let mixed = (term[s.0 as usize].rotate_left(21) ^ term[p.0 as usize])
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ term[o.0 as usize].rotate_left(43);
        acc.wrapping_add(mixed.wrapping_mul(0xBF58_476D_1CE4_E5B9))
    })
}

/// SHA-256 of the graph's sorted N-Triples rendering.
pub fn graph_digest(graph: &Graph) -> String {
    let mut h = sha2::Sha256::new();
    for line in ntriples::sorted_graph_lines(graph) {
        h.update(line.as_bytes());
        h.update(b"\n");
    }
    sha2::hex(&h.finalize())
}

/// What the read side of one repetition measured.
#[derive(Debug, Default, Clone)]
pub struct ReadSide {
    pub merge_s: f64,
    pub merged_triples: u64,
    pub replayed_triples: u64,
    pub engine_new_s: f64,
    pub derive_s: f64,
    /// Wall of each pass of the mix (seven SPARQL queries + lineage walk).
    pub pass_s: Vec<f64>,
    /// Every query execution: (query name, ms).
    pub exec_ms: Vec<(&'static str, f64)>,
    /// Row count of every element of the mix, in mix order (first pass).
    pub rows: Vec<u64>,
    pub recover_s: f64,
    pub graph_fingerprint: u64,
    /// SHA-256 of the merged graph's sorted N-Triples, when asked for.
    pub graph_sha256: Option<String>,
}

impl ReadSide {
    /// Σ of the timed stages.
    pub fn wall_s(&self) -> f64 {
        self.merge_s
            + self.engine_new_s
            + self.derive_s
            + self.pass_s.iter().sum::<f64>()
            + self.recover_s
    }

    /// Seconds per pass of the mix, lineage derivation amortised over the
    /// repetition's passes.
    pub fn mix_s(&self) -> f64 {
        (self.derive_s + self.pass_s.iter().sum::<f64>()) / self.pass_s.len().max(1) as f64
    }

    /// p90 over the repetition's query executions, ms.
    pub fn query_ms_p90(&self) -> f64 {
        let mut us: Vec<u64> = self
            .exec_ms
            .iter()
            .map(|(_, ms)| (ms * 1e3) as u64)
            .collect();
        stats::percentile(&mut us, 900) as f64 / 1e3
    }

    /// Fold a second directory's read side into this one (workflows).
    pub fn add(&mut self, other: ReadSide) {
        self.merge_s += other.merge_s;
        self.merged_triples += other.merged_triples;
        self.replayed_triples += other.replayed_triples;
        self.engine_new_s += other.engine_new_s;
        self.derive_s += other.derive_s;
        for (mine, theirs) in self.pass_s.iter_mut().zip(&other.pass_s) {
            *mine += theirs;
        }
        self.exec_ms.extend(other.exec_ms);
        self.rows.extend(other.rows);
        self.recover_s += other.recover_s;
        self.graph_fingerprint = self
            .graph_fingerprint
            .rotate_left(1)
            .wrapping_add(other.graph_fingerprint);
        if let (Some(mine), Some(theirs)) = (&mut self.graph_sha256, &other.graph_sha256) {
            mine.push('+');
            mine.push_str(theirs);
        }
    }
}

/// How the read side treats one directory.
pub struct ReadPlan<'a> {
    pub dir: &'a str,
    pub passes: usize,
    /// Generator expectations; `None` for graphs the drivers produced.
    pub expected: Option<&'a gen::Expected>,
    /// Triples the merge must replay from journals.
    pub replayed: u64,
    /// Rot one parity-protected member before recovering (needs parity
    /// and a signed manifest); the victim rotates with this index.
    pub rot: Option<u64>,
    pub seed: u64,
    /// Also take the merged graph's SHA-256 (once per run, untimed).
    pub sha256: bool,
}

/// The first subject (in sorted order) attributed to a program: the probe
/// entity for graphs that do not come from the generator.
fn first_attributed(graph: &Graph) -> Option<Guid> {
    let pat = TriplePattern::any().with_predicate(Iri::new(Relation::WasAttributedTo.iri()));
    graph
        .match_pattern(&pat)
        .into_iter()
        .filter_map(|t| match t.subject {
            Subject::Iri(i) => Guid::from_iri(&i),
            Subject::Blank(_) => None,
        })
        .min()
}

/// Merge, query and recover one directory.
pub fn read_side(
    fs: &Arc<FileSystem>,
    plan: &ReadPlan,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> ReadSide {
    let mut out = ReadSide::default();
    let dir = plan.dir;

    // (a) merge.
    let open = tr.begin("core.merge", "merge_directory", None);
    let (graph, report) = merge_directory(fs, dir);
    out.merge_s = tr.end(open).as_secs_f64();
    out.merged_triples = graph.len() as u64;
    out.replayed_triples = report.replayed_triples as u64;
    out.graph_fingerprint = graph_fingerprint(&graph);
    out.graph_sha256 = plan.sha256.then(|| graph_digest(&graph));
    checks.check(
        report.corrupt.is_empty() && report.quarantined.is_empty() && report.chain_breaks == 0,
        || format!("merge of {dir} lost data: {report}"),
    );
    checks.equal("replayed triples", out.replayed_triples, plan.replayed);
    if let Some(x) = plan.expected {
        // Every event must be in the merged graph: weigh by events.
        checks.weigh(x.events, out.merged_triples == x.merged_triples, || {
            format!(
                "merged triples: got {}, expected {}",
                out.merged_triples, x.merged_triples
            )
        });
    }

    tr.reference();

    // (b) engine + query mix.
    let probe = match plan.expected {
        Some(x) => Some(x.probe.guid()),
        None => first_attributed(&graph),
    };
    let open = tr.begin("core.engine", "new", None);
    let mut engine = ProvQueryEngine::new(graph);
    out.engine_new_s = tr.end(open).as_secs_f64();
    let Some(probe) = probe else {
        checks.check(false, || format!("{dir}: no attributed entity to probe"));
        return out;
    };
    let mix: Vec<MixQuery> = queries::mix(probe.as_str(), plan.expected);
    let open = tr.begin("core.engine", "derive_lineage", None);
    let edges = engine.derive_lineage() as u64;
    out.derive_s = tr.end(open).as_secs_f64();
    if let Some(x) = plan.expected {
        checks.equal("derived lineage edges", edges, x.lineage_edges);
    }
    for pass in 0..plan.passes {
        let pass_open = tr.begin("core.engine", "mix_pass", None);
        for q in &mix {
            let open = tr.begin("sparql", q.name, None);
            let rows = engine.sparql(&q.text).map(|s| s.len() as u64);
            let ms = tr.end(open).as_secs_f64() * 1e3;
            out.exec_ms.push((q.name, ms));
            let rows = rows.unwrap_or(u64::MAX);
            if pass == 0 {
                out.rows.push(rows);
            }
            if let Some(want) = q.rows {
                checks.equal(q.name, rows, want);
            } else {
                checks.check(rows != u64::MAX, || {
                    format!("{} failed to evaluate", q.name)
                });
            }
        }
        let open = tr.begin("core.engine", queries::BACKWARD_LINEAGE, None);
        let lineage = engine.backward_lineage(&probe).len() as u64;
        let ms = tr.end(open).as_secs_f64() * 1e3;
        out.exec_ms.push((queries::BACKWARD_LINEAGE, ms));
        if pass == 0 {
            out.rows.push(lineage);
        }
        if let Some(x) = plan.expected {
            checks.equal(queries::BACKWARD_LINEAGE, lineage, x.probe_lineage);
        }
        out.pass_s.push(tr.end(pass_open).as_secs_f64());
        tr.reference();
    }
    drop(engine);

    // (c) rot one committed member, then the full recovery pipeline.
    let before = directory_digest(fs, dir);
    if let Some(index) = plan.rot {
        checks.check(rot_member(fs, dir, index, plan.seed).is_some(), || {
            format!("{dir}: nothing parity-protected could be rotted")
        });
    }
    let outcome = if tr.recording() {
        recover_traced(fs, dir, tr)
    } else {
        recover_untraced(fs, dir, tr)
    };
    out.recover_s = outcome.wall_s;
    checks.equal(
        "files repaired",
        outcome.repaired,
        u64::from(plan.rot.is_some()),
    );
    checks.equal(
        "unrecoverable + quarantined",
        outcome.unrecoverable + outcome.quarantined,
        0,
    );
    checks.equal(
        "recovered graph fingerprint",
        graph_fingerprint(&outcome.graph),
        out.graph_fingerprint,
    );
    checks.equal(
        "directory digest after recovery",
        directory_digest(fs, dir),
        before,
    );
    if plan.rot.is_some() {
        checks.check(outcome.trusted, || {
            format!("{dir}: recovered run is not trusted")
        });
    }
    out
}

struct Recovered {
    repaired: u64,
    unrecoverable: u64,
    graph: Graph,
    trusted: bool,
    quarantined: u64,
    wall_s: f64,
}

fn recover_untraced(fs: &Arc<FileSystem>, dir: &str, tr: &mut Tracer) -> Recovered {
    let open = tr.begin("core.recover", "recover_all", None);
    let o = recover_all(fs, dir, Some(KEY));
    let wall_s = tr.end(open).as_secs_f64();
    Recovered {
        repaired: o.scrub.repaired_files.len() as u64,
        unrecoverable: o.scrub.unrecoverable.len() as u64,
        graph: o.graph,
        trusted: o.verify.is_some_and(|v| v.is_trusted()),
        quarantined: o.quarantined.len() as u64,
        wall_s,
    }
}

/// `recover_all`'s three tiers called one by one in its order, so the
/// traced run can attribute `recover_s` to scrub, merge and verify.
fn recover_traced(fs: &Arc<FileSystem>, dir: &str, tr: &mut Tracer) -> Recovered {
    let all = tr.begin("core.recover", "recover_all", None);
    let open = tr.begin("core.scrub", "scrub_directory", None);
    let scrub = provio::scrub_directory(fs, dir);
    tr.end(open);
    let open = tr.begin("core.merge", "merge_directory", None);
    let (graph, _) = merge_directory(fs, dir);
    tr.end(open);
    let open = tr.begin("core.verify", "verify_directory", None);
    let audit = provio::verify_directory(fs, dir, KEY);
    let moved = provio::quarantine_tampered(fs, &audit);
    tr.end(open);
    Recovered {
        repaired: scrub.repaired_files.len() as u64,
        unrecoverable: scrub.unrecoverable.len() as u64,
        graph,
        trusted: audit.is_trusted(),
        quarantined: moved.len() as u64,
        wall_s: tr.end(all).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_hpcfs::LustreConfig;

    /// The capture interval has no hole: it is the calls' latencies plus
    /// `finish_all` and nothing else, on the asynchronous store too.
    #[test]
    fn capture_is_one_uninterrupted_interval() {
        let streams = gen::generate(7, 2, 400);
        for cfg in [mem_config(), durable_config()] {
            let fs = FileSystem::new(LustreConfig::default());
            let mut off = Tracer::new("test", false);
            let c = capture(&fs, &cfg.shared(), &streams, &mut off);
            let calls_s = c.latencies_ns.iter().map(|&x| f64::from(x)).sum::<f64>() / 1e9;
            let gap_s = c.capture_s - calls_s - c.finish_s;
            // A reference sample would be 15 ms or more; a preemption is ~3 ms.
            assert!((0.0..0.010).contains(&gap_s), "hole of {gap_s} s");
            assert_eq!(c.events, 800);
        }
    }
}
