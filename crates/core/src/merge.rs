//! Post-run merging of per-process sub-graphs.
//!
//! "The sub-graph files are then parsed and merged into a complete
//! provenance graph. Since every node in the graph has a globally unique ID
//! (GUID), merging the sub-graphs does not cause unnecessary duplication."
//! (paper §5). Merging happens after workflow execution, so it costs the
//! workflow nothing.
//!
//! Each file is read in one pass per syntax it may hold: a framed file's
//! verified payload is N-Triples, whatever its name says; an unframed file
//! is read by its extension (Turtle, then N-Triples, when it names
//! neither). The pass returns the sub-graph and whether all of it parsed,
//! so a torn file's valid prefix comes out of that same read.

use crate::config::RdfFormat;
use crate::frame::{self, FrameKind, FramedFile, WalFile};
use crate::artifact::HandOff;
use crate::fsio::{holds, read_file};
use crate::names::{self, Role, State};
use provio_hpcfs::FileSystem;
use provio_rdf::{ntriples, turtle, Graph};
use provio_simrt::SimTime;
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Result of a merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeReport {
    /// Files that contributed triples (fully parsed or salvaged).
    pub files: usize,
    pub triples: usize,
    /// Files from which at least some records could not be recovered —
    /// nothing at all for legacy files; for framed files, one or more
    /// failed CRC batches or a verified payload that stops parsing. The
    /// merge proceeds with whatever verified and parsed.
    pub corrupt: Vec<String>,
    /// Orphan `<p>.tmp` files adopted because no committed `<p>` exists —
    /// the writer crashed between serialization and its atomic rename.
    /// Each path appears at most once.
    pub recovered: Vec<String>,
    /// Triples recovered from the valid prefix of torn files or of a
    /// framed payload that stops parsing, or from the verified batches of
    /// partially corrupt framed files.
    pub salvaged_triples: usize,
    /// Framed files whose identity could not be verified (damaged header
    /// or footer, broken chain value, or a GUID claiming another store):
    /// renamed to `<file>.quarantine` and never parsed into the merged
    /// graph. A later merge over the same directory ignores them.
    pub quarantined: Vec<String>,
    /// Intact CRC batches salvaged out of partially corrupt framed files.
    pub salvaged_batches: u64,
    /// Discontinuities in the per-store frame chains: a substituted file
    /// (GUID mismatch), a missing or duplicated ordinal, or a `prev` value
    /// that does not match the predecessor's chain — each evidence that
    /// committed history was lost, reordered, or replaced.
    pub chain_breaks: u64,
    /// Triples recovered from write-ahead journals: records journaled by a
    /// store but never covered by a committed snapshot or delta segment
    /// (the writer crashed or its flushes were dropped), replayed into the
    /// merged graph. Counted only when the replay actually added a triple,
    /// so re-merging the same directory never double-counts.
    pub replayed_triples: usize,
    /// Journal generation files whose tail was torn or bit-rotted: the
    /// damaged suffix is truncated at the last verified chunk boundary and
    /// never parsed, while the intact prefix still replays.
    pub wal_tails_truncated: u64,
}

impl std::fmt::Display for MergeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "merge: {} files, {} triples, {} salvaged ({} batches), \
             {} replayed from journals, {} files lost, {} recovered, \
             {} quarantined, {} chain breaks, {} journal tails truncated",
            self.files,
            self.triples,
            self.salvaged_triples,
            self.salvaged_batches,
            self.replayed_triples,
            self.corrupt.len(),
            self.recovered.len(),
            self.quarantined.len(),
            self.chain_breaks,
            self.wal_tails_truncated,
        )
    }
}

/// One file's sub-graph, and whether all of it parsed — each syntax tried
/// reads the text once, into a fresh graph that keeps a half-parsed file
/// from polluting the merged graph. N-Triples is one lenient pass that
/// stops at the first malformed line. Turtle parses the whole text and,
/// only after an error, steps back to statement boundaries
/// ([`salvage_turtle`]). An extension that says neither tries Turtle, then
/// N-Triples, and salvages Turtle only when no N-Triples line read.
fn read(syntax: Option<RdfFormat>, text: &str) -> (Graph, bool) {
    let ntriples = || {
        let mut graph = Graph::new();
        let (recovered, whole) = ntriples::parse_lenient_prefix(text, &mut graph);
        (graph, recovered, whole)
    };
    if syntax == Some(RdfFormat::NTriples) {
        let (graph, _, whole) = ntriples();
        return (graph, whole);
    }
    let failed_at = match turtle::parse(text) {
        Ok((graph, _)) => return (graph, true),
        Err(e) => e.line,
    };
    if syntax.is_none() {
        let (graph, recovered, whole) = ntriples();
        if whole || recovered > 0 {
            return (graph, whole);
        }
    }
    (salvage_turtle(text, failed_at).0, false)
}

/// Longest prefix of a Turtle document that ends at a statement boundary
/// (a line ending `.`) and parses, after a parse of the whole text failed
/// at line `failed_at`; and how many parses finding it took. A parse that
/// fails at line `n` fails the same way on every prefix holding line `n`
/// whole — the parser reads left to right — so the next candidate is the
/// last boundary before `n`, not merely the next shorter one: a corruption
/// mid-file costs one or two parses more, not one per statement after it.
fn salvage_turtle(text: &str, failed_at: usize) -> (Graph, usize) {
    // (line index, byte offset just past the line) of every boundary.
    let mut cuts = Vec::new();
    let mut offset = 0;
    for (i, line) in text.split_inclusive('\n').enumerate() {
        offset += line.len();
        if line.trim_end().ends_with('.') {
            cuts.push((i, offset));
        }
    }
    // `ParseError::line` counts from 1. An error at a candidate's own end
    // (input ran out mid-statement) steps back one boundary.
    let before = |cuts: &[(usize, usize)], line: usize| cuts.partition_point(|&(i, _)| i + 1 < line);
    let mut parses = 0;
    let mut end = before(&cuts, failed_at);
    while end > 0 {
        parses += 1;
        match turtle::parse(&text[..cuts[end - 1].1]) {
            Ok((g, _)) => return (g, parses),
            Err(e) => end = before(&cuts[..end - 1], e.line),
        }
    }
    (Graph::new(), parses)
}

/// What one sub-graph file contributed, computed independently per file so
/// the read/parse/salvage work parallelizes. One per file, and in a healthy
/// directory nearly every one a `Sub`, so boxing its graph would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Outcome {
    /// Shadowed tmp or unreadable path — contributes nothing, not an error.
    Skipped,
    /// Nothing recoverable at all.
    Corrupt,
    /// A sub-graph: the file read whole, or (`salvaged`) the valid prefix
    /// of a torn one. From a checksummed file whose identity verified,
    /// `sub` holds the triples of its CRC-intact batches (all of them, when
    /// `batches_corrupt` is 0) up to the first line that does not read, and
    /// `frame` the decoded header and footer facts — payload taken — for
    /// the post-fold chain check.
    Sub {
        sub: Graph,
        adopted_tmp: bool,
        salvaged: bool,
        frame: Option<FramedFile>,
    },
    /// A checksummed file whose identity could NOT be verified: quarantine
    /// it, never parse it. `substituted` marks a GUID claiming a different
    /// store (counted as a chain break on top of the quarantine).
    Quarantine { substituted: bool },
    /// A write-ahead journal generation file: the verified records of its
    /// intact prefix, to be replayed above the store's committed watermark
    /// once every committed file has folded.
    Wal(WalFile),
}

/// Read and parse (or salvage) one file into a scratch graph — `decoded`,
/// when scrub already decoded the file intact, stands in for the read and
/// the decode. Pure function of the file: no shared mutable state, so
/// files process in parallel.
fn process_file(
    fs: &Arc<FileSystem>,
    path: &str,
    committed: &HashSet<&str>,
    decoded: Option<FramedFile>,
) -> Outcome {
    let name = names::parse(path);
    // Quarantined files were condemned by an earlier merge: never re-read,
    // never re-renamed.
    if name.state == State::Quarantined {
        return Outcome::Skipped;
    }
    // Trust-layer artifacts (the signed run manifest and the campaign
    // ledger) are not sub-graph files: `verify` owns them, the merge never
    // parses them — and never adopts a manifest tmp as an orphan store.
    // Parity files are redundancy, not sub-graph data: the scrub pass
    // (`crate::scrub`) owns them, the merge never parses one — their
    // frames sit outside the commit chain (prev is always CHAIN_START),
    // so folding them in would only manufacture chain breaks. The role
    // sees through `.tmp`, so an interrupted parity seal is never adopted
    // as an orphan store either.
    if name.is_trust_artifact() || matches!(name.role, Role::Parity(_)) {
        return Outcome::Skipped;
    }
    let is_wal = matches!(name.role, Role::Journal(_));
    let adopted_tmp = name.state == State::Tmp;
    // A journal generation tmp was left by an interrupted create: never
    // promoted to a named generation, it holds no records. Any other tmp
    // is stale when its commit exists — the commit wins.
    if adopted_tmp && (is_wal || committed.contains(name.live)) {
        return Outcome::Skipped;
    }
    // An orphan tmp that cannot be used is crash debris, not evidence: the
    // rename that would have committed it never ran, so it was never
    // acknowledged and the frames it tore are still covered by the journal.
    // Condemning it would brand a pure crash as corruption — and
    // quarantining mutates the directory, breaking recovery idempotence
    // (found by crashcheck, tests/crashcheck.rs). Leave it in place,
    // unparsed; every later merge skips it the same way.
    let unless_debris = |verdict: Outcome| if adopted_tmp { Outcome::Skipped } else { verdict };
    let mut framed = match decoded {
        Some(framed) => framed,
        None => {
            let Some(bytes) = read_file(fs, path) else {
                return Outcome::Skipped;
            };
            // Rot severe enough to break UTF-8 condemns a journal's whole
            // tail: nothing is ever parsed out of it.
            let Ok(text) = String::from_utf8(bytes) else {
                let torn = WalFile { truncated: true, ..WalFile::default() };
                return if is_wal { Outcome::Wal(torn) } else { unless_debris(Outcome::Corrupt) };
            };
            if is_wal {
                return Outcome::Wal(frame::decode_wal(&text, name.guid()));
            }
            match frame::decode(&text) {
                Ok(framed) => framed,
                Err(frame::FrameError::Quarantine(_)) => {
                    return unless_debris(Outcome::Quarantine { substituted: false });
                }
                // A legacy file: read whole, or its valid prefix salvaged.
                Err(frame::FrameError::NotFramed) => {
                    let (sub, whole) = read(name.syntax(), &text);
                    if sub.is_empty() && !whole {
                        return unless_debris(Outcome::Corrupt);
                    }
                    return Outcome::Sub { sub, adopted_tmp, salvaged: !whole, frame: None };
                }
            }
        }
    };
    if framed.guid != name.guid() {
        // The file's own checksums verify, but it belongs to a different
        // store: substituted or misplaced.
        return unless_debris(Outcome::Quarantine { substituted: true });
    }
    // A frame's payload is N-Triples, whatever the file's name says. It is
    // CRC-verified, so a line that does not read was written wrong or
    // rewritten with its CRC patched: the lines before it merge, and the
    // stop is reported (`salvaged`), never passed over.
    let payload = std::mem::take(&mut framed.payload);
    let (sub, whole) = read(Some(RdfFormat::NTriples), &payload);
    Outcome::Sub { sub, adopted_tmp, salvaged: !whole, frame: Some(framed) }
}

/// What one committed file contributed to its store: the frame facts
/// (kind, ordinal) when framed, and the triple count it parsed to.
type CommittedEntry = (Option<(FrameKind, u64)>, usize);

/// Committed watermark of one store: how many records its committed files
/// cover, so journal records below that count are already durable and must
/// not replay. With framed files the newest snapshot plus the segments
/// above it are counted (stale pre-snapshot segments overlap the snapshot
/// and would inflate the watermark); legacy files simply sum.
fn committed_watermark(entries: &[CommittedEntry]) -> u64 {
    let snapshot = |(m, n): &CommittedEntry| match m {
        Some((FrameKind::Snapshot, ordinal)) => Some((*ordinal, *n as u64)),
        _ => None,
    };
    let Some((snap, count)) = entries.iter().filter_map(snapshot).max_by_key(|(o, _)| *o) else {
        return entries.iter().map(|(_, n)| *n as u64).sum();
    };
    let above = |(m, n): &CommittedEntry| match m {
        Some((kind, o)) if *kind != FrameKind::Snapshot && *o > snap => *n as u64,
        _ => 0,
    };
    count + entries.iter().map(above).sum::<u64>()
}

/// Count chain discontinuities among the verified framed files of one
/// store, ordered by ordinal. Continuity is checked from the newest
/// snapshot onward — files before it are stale leftovers that compaction
/// failed to unlink, harmless and expected to have gaps. A store with no
/// snapshot must start its chain at ordinal 0.
fn chain_breaks_in(frames: &mut [FramedFile]) -> u64 {
    frames.sort_by_key(|f| f.ordinal);
    let mut breaks = 0u64;
    // Duplicate ordinals: two files claiming the same slot in the commit
    // sequence can't both be canonical history.
    for pair in frames.windows(2) {
        if pair[0].ordinal == pair[1].ordinal {
            breaks += 1;
        }
    }
    let start = frames
        .iter()
        .rposition(|f| f.kind == FrameKind::Snapshot)
        .unwrap_or(0);
    let first = &frames[start];
    if first.kind != FrameKind::Snapshot && (first.ordinal != 0 || first.prev != frame::CHAIN_START)
    {
        // No snapshot survived and the earliest segment is not the chain's
        // origin: whatever preceded it is gone.
        breaks += 1;
    }
    for pair in frames[start..].windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.ordinal == b.ordinal {
            continue; // already counted as a duplicate
        }
        if b.ordinal != a.ordinal + 1 || b.prev != a.chain {
            breaks += 1;
        }
    }
    breaks
}

/// Parse and merge every sub-graph file under `dir` (recursively) into one
/// graph. A framed file's payload parses as N-Triples; an unframed `.ttl`
/// file as Turtle, `.nt` as N-Triples (this includes the store's
/// `.dNNNNNN.nt` delta segments — a snapshot plus its segments merges back
/// into the full sub-graph, duplicates collapsing); unknown extensions try
/// both.
///
/// Files parse into scratch graphs on worker threads (I/O and parsing
/// dominate merge time at rank scale). The calling thread folds each one
/// into the final graph in directory order as soon as it and every earlier
/// file are parsed, while the workers parse the files after it (the `rayon`
/// shim's ordered stream). The fold is the interner's bulk id-mapped merge,
/// which reuses the hashes the worker computed; the first sub-graph is
/// adopted whole. Output is identical at any pool size, one thread
/// included (the pool is sized by the shim, as for `finish_all`'s parallel
/// renders, and hands out files one at a time, so a large snapshot occupies
/// one worker while the others take the files after it).
///
/// Crash recovery: a `<p>.tmp` left by the store's atomic-rename protocol
/// is skipped when the committed `<p>` exists (it is a stale or torn
/// in-progress flush — the committed file wins), and adopted when it does
/// not (the writer crashed after serializing but before renaming). Of a
/// file that does not parse whole, the valid prefix is salvaged: up to the
/// first malformed line (N-Triples) or at statement boundaries (Turtle).
/// An unframed file is reported corrupt only when it yields nothing at all.
///
/// Integrity: files written with the store's checksummed framing
/// ([`crate::frame`]) are CRC-verified batch by batch — corrupt batches are
/// dropped (and counted) while intact siblings still merge, a verified
/// payload that stops parsing is reported corrupt with its prefix counted
/// as salvage, files whose
/// header, footer, or GUID cannot be verified are renamed to
/// `<file>.quarantine` and never parsed (a later merge over the same
/// directory leaves them untouched), and each store's header/footer hash
/// chain is checked for missing, duplicated, or substituted commits
/// ([`MergeReport::chain_breaks`]).
pub fn merge_directory(fs: &Arc<FileSystem>, dir: &str) -> (Graph, MergeReport) {
    merge_listed(fs, &fs.walk_files(dir).unwrap_or_default(), &mut HandOff::new())
}

/// [`merge_directory`] over the walk `files` of a directory, taking out of
/// `decoded` the frame of every file scrub decoded intact that still holds
/// those bytes, so that file is parsed without being read again.
pub(crate) fn merge_listed(
    fs: &Arc<FileSystem>,
    files: &[String],
    decoded: &mut HandOff,
) -> (Graph, MergeReport) {
    let mut graph = Graph::new();
    let mut report = MergeReport::default();
    let committed: HashSet<&str> = files.iter().map(String::as_str).collect();
    let decoded = Mutex::new(decoded);
    let mut chains: HashMap<u64, Vec<FramedFile>> = HashMap::new();
    // Per-store bookkeeping for journal replay: what each committed file
    // contributed (with its frame facts, when framed) and the journal
    // records awaiting the post-fold watermark check. Keyed by the base
    // store path so segments, tmps, and journal generations all land on
    // the same store.
    let mut committed_counts: HashMap<&str, Vec<CommittedEntry>> = HashMap::new();
    let mut wal_records: BTreeMap<&str, Vec<(u64, String)>> = BTreeMap::new();
    // The pipelined fold: each outcome in directory order, on this thread.
    let parsed = files.par_iter().map(|path| {
        // A file scrub decoded is parsed unread while it holds those bytes.
        let mut map = decoded.lock().expect("nothing panics holding the hand-off");
        let frame = map.get_mut(path).and_then(|e| e.frame.take_if(|_| holds(fs, path, e.len)));
        drop(map);
        (path, process_file(fs, path, &committed, frame))
    });
    parsed.for_each_ordered(|(path, outcome)| match outcome {
        Outcome::Skipped => {}
        Outcome::Corrupt => report.corrupt.push(path.clone()),
        Outcome::Sub { sub, adopted_tmp, salvaged, frame } => {
            let rotted = frame.as_ref().filter(|f| f.batches_corrupt > 0);
            if let Some(f) = rotted {
                // Partial recovery: the dropped batches are corruption,
                // the surviving ones are salvage.
                report.salvaged_batches += (f.batches_total - f.batches_corrupt) as u64;
            }
            // A verified payload that stops parsing lost its tail as surely
            // as a rotted batch; a torn legacy file is only salvaged.
            if rotted.is_some() || (salvaged && frame.is_some()) {
                report.corrupt.push(path.clone());
            }
            if salvaged || rotted.is_some() {
                report.salvaged_triples += sub.len();
            }
            let facts = frame.as_ref().map(|f| (f.kind, f.ordinal));
            committed_counts.entry(names::parse(path).base).or_default().push((facts, sub.len()));
            // Folding into an empty graph is a move: same ids, same order.
            if graph.term_count() == 0 {
                graph = sub;
            } else {
                graph.merge(&sub);
            }
            report.files += 1;
            if adopted_tmp {
                report.recovered.push(path.clone());
            }
            if let Some(f) = frame {
                chains.entry(f.guid).or_default().push(f);
            }
        }
        Outcome::Wal(wal) => {
            report.wal_tails_truncated += u64::from(wal.truncated);
            wal_records.entry(names::parse(path).base).or_default().extend(wal.records);
        }
        Outcome::Quarantine { substituted } => {
            // Condemn the file on disk so later merges skip it without
            // re-parsing; the rename is best-effort (a read-only or
            // failing filesystem still gets the in-report verdict).
            let _ = fs.rename(path, &names::quarantine_of(path), SimTime::ZERO);
            report.quarantined.push(path.clone());
            if substituted {
                // A verified file claiming another store's GUID means
                // this store's real history was displaced.
                report.chain_breaks += 1;
            }
        }
    });
    for metas in chains.values_mut() {
        report.chain_breaks += chain_breaks_in(metas);
    }
    // Journal replay, after every committed file has folded: records a
    // store journaled but never committed — those at or above its committed
    // watermark — parse back into the merged graph. Records *below* the
    // watermark are already in a snapshot or segment (a crash between
    // segment commit and journal recycle leaves a stale generation behind),
    // so the ordinal filter makes double-counting impossible and re-merges
    // over the same directory idempotent.
    for (base, mut records) in wal_records {
        let watermark = committed_counts
            .get(base)
            .map(|entries| committed_watermark(entries))
            .unwrap_or(0);
        // Stale and current generations never overlap in ordinal space, but
        // sorting and deduplicating costs little and holds even if a crashed
        // recycle left both behind.
        records.sort_unstable_by_key(|r| r.0);
        records.dedup_by_key(|(ordinal, _)| *ordinal);
        // Journal payloads are CRC-verified, so every record the store
        // wrote parses; the replay stops at a bad line all the same, as a
        // salvage would.
        let pending = records.iter().filter(|(ordinal, _)| *ordinal >= watermark);
        let before = graph.len();
        ntriples::parse_lenient_lines(pending.map(|(_, line)| line.as_str()), &mut graph);
        report.replayed_triples += graph.len() - before;
    }
    report.triples = graph.len();
    (graph, report)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{ProvIoConfig, RdfFormat};
    use crate::tracker::{IoEvent, ObjectDesc, ProvTracker};
    use provio_hpcfs::LustreConfig;
    use provio_model::ontology::nodes_of_class;
    use provio_model::{ActivityClass, EntityClass};
    use provio_rdf::{ns, Iri, Namespaces, Subject, Term, Triple};
    use provio_simrt::{DetRng, SimTime, VirtualClock};
    use proptest::any;

    /// `work` with the `rayon` shim's pool forced to `threads` workers (1 =
    /// the sequential loop), so the equivalence tests reach both sides of a
    /// parallel tier on any host. The pool size is process-global: every
    /// test of this crate that forces it takes its turn here.
    pub(crate) fn with_pool<T>(threads: usize, work: impl FnOnce() -> T) -> T {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
        rayon::set_thread_count(threads);
        let out = work();
        rayon::set_thread_count(0);
        out
    }

    fn merge_with_pool(fs: &Arc<FileSystem>, dir: &str, threads: usize) -> (Graph, MergeReport) {
        with_pool(threads, || merge_directory(fs, dir))
    }

    fn event(path: &str) -> IoEvent {
        IoEvent {
            activity: ActivityClass::Write,
            api_name: "H5Dwrite".into(),
            object: Some(ObjectDesc::hdf5(EntityClass::Dataset, "/shared.h5", path)),
            bytes: 1,
            duration_ns: 1,
            timestamp_ns: 1,
            ok: true,
        }
    }

    #[test]
    fn merge_dedups_shared_guids() {
        let fs = FileSystem::new(LustreConfig::default());
        // Three processes all touch the same dataset: the merged graph must
        // contain ONE dataset node but three Write activities.
        for pid in 0..3 {
            let t = ProvTracker::new(
                ProvIoConfig::default().shared(),
                Arc::clone(&fs),
                pid,
                "Bob",
                "vpicio",
                VirtualClock::new(),
            );
            t.track_io(&event("/Timestep_0/x"));
            t.finish();
        }
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 3);
        assert!(report.corrupt.is_empty());
        assert_eq!(nodes_of_class(&g, EntityClass::Dataset.into()).len(), 1);
        assert_eq!(nodes_of_class(&g, ActivityClass::Write.into()).len(), 3);
        // Shared agents dedup too (same program name across ranks).
        assert_eq!(
            nodes_of_class(&g, provio_model::AgentClass::Program.into()).len(),
            1
        );
        assert_eq!(
            nodes_of_class(&g, provio_model::AgentClass::User.into()).len(),
            1
        );
        // But each rank is its own Thread agent.
        assert_eq!(
            nodes_of_class(&g, provio_model::AgentClass::Thread.into()).len(),
            3
        );
    }

    #[test]
    fn corrupt_files_skipped_not_fatal() {
        let fs = FileSystem::new(LustreConfig::default());
        let t = ProvTracker::new(
            ProvIoConfig::default().shared(),
            Arc::clone(&fs),
            0,
            "B",
            "p",
            VirtualClock::new(),
        );
        t.track_io(&event("/d"));
        t.finish();
        // A truncated/corrupt sub-graph from a crashed process.
        let ino = fs
            .create_file("/provio/prov_p99.ttl", false, "provio", SimTime::ZERO)
            .unwrap();
        fs.write_at(ino, 0, b"@prefix broken <oops", SimTime::ZERO).unwrap();
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 1);
        assert_eq!(report.corrupt, vec!["/provio/prov_p99.ttl"]);
        assert!(!g.is_empty());
    }

    fn write_file(fs: &Arc<FileSystem>, path: &str, body: &[u8]) {
        if let Some((dir, _)) = path.rsplit_once('/') {
            fs.mkdir_all(dir, "provio", SimTime::ZERO).unwrap();
        }
        let ino = fs.create_file(path, false, "provio", SimTime::ZERO).unwrap();
        fs.write_at(ino, 0, body, SimTime::ZERO).unwrap();
    }

    #[test]
    fn stale_tmp_is_shadowed_by_committed_file() {
        let fs = FileSystem::new(LustreConfig::default());
        write_file(&fs, "/provio/prov_p0.nt", b"<urn:a> <urn:p> <urn:b> .\n");
        // A torn in-progress flush next to a good committed file: ignored.
        write_file(&fs, "/provio/prov_p0.nt.tmp", b"<urn:a> <urn:p> \"tor");
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 1);
        assert_eq!(g.len(), 1);
        assert!(report.corrupt.is_empty());
        assert!(report.recovered.is_empty());
        assert_eq!(report.salvaged_triples, 0);
    }

    #[test]
    fn parity_files_are_skipped_not_merged() {
        let fs = FileSystem::new(LustreConfig::default());
        write_file(&fs, "/provio/prov_p0.nt", b"<urn:a> <urn:p> <urn:b> .\n");
        // A sealed parity file, an interrupted parity tmp, and a condemned
        // copy: redundancy, not data — none may fold, quarantine, count as
        // corrupt, or adopt as an orphan, and none may break the chain.
        let guid = frame::store_guid("/provio/prov_p0.nt");
        let mut enc = frame::Encoder::new(FrameKind::Parity, guid, 0, frame::CHAIN_START);
        enc.batch(&["member crc=00000000 offset=0 len=0 ord=- path=/provio/prov_p0.nt"]);
        enc.batch(&["data len=0 b64="]);
        let (par, _chain, _root) = enc.finish_with_root();
        write_file(&fs, "/provio/prov_p0.nt.p000000.par", &par);
        write_file(&fs, "/provio/prov_p0.nt.p000001.par.tmp", &par);
        write_file(&fs, "/provio/prov_p0.nt.p000002.par.quarantine", &par);
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 1);
        assert_eq!(g.len(), 1);
        assert!(report.corrupt.is_empty());
        assert!(report.quarantined.is_empty());
        assert!(report.recovered.is_empty());
        assert_eq!(report.chain_breaks, 0);
    }

    #[test]
    fn forced_thread_pool_matches_sequential_output() {
        let fs = FileSystem::new(LustreConfig::default());
        for pid in 0..6 {
            write_file(
                &fs,
                &format!("/provio/prov_p{pid}.nt"),
                format!("<urn:s{pid}> <urn:p> <urn:o{pid}> .\n<urn:shared> <urn:p> <urn:o> .\n")
                    .as_bytes(),
            );
        }
        let (seq_g, seq_r) = merge_with_pool(&fs, "/provio", 1);
        let (par_g, par_r) = merge_with_pool(&fs, "/provio", 4);
        assert_eq!(par_r.files, seq_r.files);
        assert_eq!(par_r.triples, seq_r.triples);
        assert_eq!(
            ntriples::serialize(&par_g),
            ntriples::serialize(&seq_g),
            "pool size must never change merge output"
        );
    }

    #[test]
    fn orphan_tmp_is_adopted() {
        let fs = FileSystem::new(LustreConfig::default());
        // Writer crashed after serializing, before the rename: no committed
        // file, a complete tmp. The merge adopts it.
        write_file(
            &fs,
            "/provio/prov_p1.nt.tmp",
            b"<urn:a> <urn:p> <urn:b> .\n<urn:c> <urn:p> <urn:d> .\n",
        );
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 1);
        assert_eq!(g.len(), 2);
        assert_eq!(report.recovered, vec!["/provio/prov_p1.nt.tmp"]);
    }

    #[test]
    fn torn_ntriples_prefix_is_salvaged() {
        let fs = FileSystem::new(LustreConfig::default());
        write_file(
            &fs,
            "/provio/prov_p2.nt",
            b"<urn:a> <urn:p> <urn:b> .\n<urn:c> <urn:p> <urn:d> .\n<urn:e> <urn:p> \"to",
        );
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 1);
        assert!(report.corrupt.is_empty());
        assert_eq!(report.salvaged_triples, 2);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn failed_full_parse_does_not_pollute_merged_graph() {
        let fs = FileSystem::new(LustreConfig::default());
        write_file(&fs, "/provio/good.nt", b"<urn:a> <urn:p> <urn:b> .\n");
        // Unknown extension, first line valid Turtle-and-NT, second line
        // garbage: the old code parsed line 1 straight into the merged
        // graph before failing. Now nothing of a failed full parse leaks
        // unless the salvage pass owns it (and then it is *reported*).
        write_file(
            &fs,
            "/provio/mystery.dat",
            b"<urn:x> <urn:p> <urn:y> .\n%%%not rdf%%%\n",
        );
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 2);
        assert_eq!(report.salvaged_triples, 1, "prefix salvage is accounted");
        assert_eq!(g.len(), 2);
        assert!(report.corrupt.is_empty());
    }

    /// The salvage routine this module shipped before: every statement
    /// boundary, longest prefix first. Quadratic, and the definition of the
    /// right answer.
    fn salvage_turtle_reference(text: &str) -> Graph {
        let lines: Vec<&str> = text.lines().collect();
        let cuts = lines.iter().enumerate().filter(|(_, l)| l.trim_end().ends_with('.'));
        for (cut, _) in cuts.rev() {
            if let Ok((g, _)) = turtle::parse(&lines[..=cut].join("\n")) {
                return g;
            }
        }
        Graph::new()
    }

    /// A Turtle document of `subjects` statements as the store writes them:
    /// prefixes, `;`-continued blocks, literals holding `.`, `>`, quotes and
    /// escaped newlines.
    fn turtle_document(subjects: usize) -> String {
        let mut g = Graph::new();
        for i in 0..subjects {
            let s = Subject::iri(format!("{}activity/p7/write-{i}", ns::PROVIO));
            let mut put = |p: &str, o: Term| {
                g.insert(&Triple::new(s.clone(), Iri::new(p), o));
            };
            put(ns::RDF_TYPE, Term::iri(format!("{}Write", ns::PROVIO)));
            put("urn:test:label", Term::plain(format!("write no. {i}. \"quoted\" <tag>\nnext")));
            put("urn:test:next", Term::iri(format!("urn:test:o{}", (i + 1) % subjects)));
        }
        turtle::serialize(&g, &Namespaces::standard())
    }

    #[test]
    fn turtle_salvage_agrees_with_the_reference_on_torn_and_corrupted_documents() {
        let doc = turtle_document(40);
        assert!(read(Some(RdfFormat::Turtle), &doc).1, "an undamaged document reads whole");
        let same = |damaged: &str, what: &str| {
            let (got, _) = read(Some(RdfFormat::Turtle), damaged);
            let want = salvage_turtle_reference(damaged);
            assert!(
                ntriples::sorted_graph_lines(&got) == ntriples::sorted_graph_lines(&want),
                "{what}: {} triples salvaged, reference {}",
                got.len(),
                want.len()
            );
        };
        let mut rng = DetRng::new(0x5A17);
        // Torn: every prefix length in a band around each of a few points,
        // and a sample of the rest.
        for cut in (0..doc.len()).filter(|&c| c % 7 == 0 || c < 200) {
            if doc.is_char_boundary(cut) {
                same(&doc[..cut], &format!("torn at {cut}"));
            }
        }
        // One byte overwritten, anywhere, with bytes that break tokens
        // (quotes, brackets, terminators) or merely change them.
        for round in 0..600 {
            let at = rng.below(doc.len() as u64) as usize;
            const BYTES: &[u8] = b"\"<>.;\\@_:#\nx ";
            let with = BYTES[rng.below(BYTES.len() as u64) as usize];
            let mut bytes = doc.clone().into_bytes();
            bytes[at] = with;
            if let Ok(damaged) = String::from_utf8(bytes) {
                same(&damaged, &format!("round {round}: byte {at} overwritten with {with:#04x}"));
            }
        }
        // Several overwrites at once, and a corruption inside a torn prefix.
        for round in 0..200 {
            let mut bytes = doc.clone().into_bytes();
            for _ in 0..3 {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] = b"\"<>. "[rng.below(5) as usize];
            }
            bytes.truncate(rng.range(1, bytes.len() as u64) as usize);
            if let Ok(damaged) = String::from_utf8(bytes) {
                same(&damaged, &format!("round {round}: three overwrites and a tear"));
            }
        }
        // No boundary at all, and nothing at all.
        same("<urn:a> <urn:p> \"to", "no boundary");
        same("", "empty");
    }

    /// The 2 000-statement document, six times: each with one of the first
    /// six structural bytes past its midpoint overwritten. Beside each, the
    /// pristine text of the statements before the damaged one.
    fn mid_corrupted() -> Vec<(String, String)> {
        let doc = turtle_document(2_000);
        let structural = |b: &u8| matches!(b, b'"' | b'<' | b'>' | b';');
        let hits = doc.bytes().enumerate().skip(doc.len() / 2).filter(|(_, b)| structural(b));
        hits.take(6)
            .map(|(at, _)| {
                let mut bytes = doc.clone().into_bytes();
                bytes[at] = b'x';
                let intact = doc[..at].rfind(".\n").expect("a statement before the midpoint") + 2;
                (String::from_utf8(bytes).unwrap(), doc[..intact].to_string())
            })
            .collect()
    }

    #[test]
    fn turtle_salvage_of_a_mid_file_corruption_takes_a_bounded_number_of_parses() {
        for (damaged, intact) in mid_corrupted() {
            // The whole-text parse, then one or two candidates.
            let failed_at = turtle::parse(&damaged).unwrap_err().line;
            let (got, parses) = salvage_turtle(&damaged, failed_at);
            assert!((1..=2).contains(&parses), "{parses} parses after the whole-text one");
            let want = turtle::parse(&intact).unwrap().0;
            assert!(want.len() >= 2_900);
            assert!(ntriples::sorted_graph_lines(&got) == ntriples::sorted_graph_lines(&want));
        }
    }

    /// The same documents through the reference, which parses once per
    /// statement after the damage (~1 000 times each): minutes unoptimized.
    #[test]
    #[ignore = "quadratic reference on a 2 000-statement document; run with --release -- --ignored"]
    fn turtle_salvage_agrees_with_the_reference_on_mid_file_corruption() {
        for (damaged, _) in mid_corrupted() {
            let got = read(Some(RdfFormat::Turtle), &damaged).0;
            let want = salvage_turtle_reference(&damaged);
            assert!(ntriples::sorted_graph_lines(&got) == ntriples::sorted_graph_lines(&want));
        }
    }

    /// The reader this module shipped before it read each file in one pass:
    /// a full parse into a scratch graph and, when that failed, a second
    /// pass salvaging the valid prefix — N-Triples line by line, Turtle at
    /// statement boundaries, an unknown extension N-Triples first. What
    /// `process_file` must still make of an unframed file: its sub-graph
    /// and its `salvaged` flag, or `None` when nothing is recoverable.
    fn two_pass_reference(syntax: Option<RdfFormat>, bytes: &[u8]) -> Option<(Graph, bool)> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut scratch = Graph::new();
        let full = match syntax {
            Some(RdfFormat::NTriples) => ntriples::parse_into(text, &mut scratch).is_ok(),
            Some(RdfFormat::Turtle) => turtle::parse_into(text, &mut scratch).is_ok(),
            None => {
                turtle::parse_into(text, &mut scratch).is_ok() || {
                    scratch = Graph::new();
                    ntriples::parse_into(text, &mut scratch).is_ok()
                }
            }
        };
        if full {
            return Some((scratch, false));
        }
        let turtle_prefix = |text: &str| {
            let mut cuts = Vec::new();
            let mut offset = 0;
            for (i, line) in text.split_inclusive('\n').enumerate() {
                offset += line.len();
                if line.trim_end().ends_with('.') {
                    cuts.push((i, offset));
                }
            }
            let mut end = cuts.len();
            while end > 0 {
                match turtle::parse(&text[..cuts[end - 1].1]) {
                    Ok((g, _)) => return g,
                    Err(e) => end = cuts[..end - 1].partition_point(|&(line, _)| line + 1 < e.line),
                }
            }
            Graph::new()
        };
        let sub = if syntax == Some(RdfFormat::Turtle) {
            turtle_prefix(text)
        } else {
            let mut scratch = Graph::new();
            if ntriples::parse_lenient_prefix(text, &mut scratch).0 > 0 || syntax.is_some() {
                scratch
            } else {
                turtle_prefix(text)
            }
        };
        (!sub.is_empty()).then_some((sub, true))
    }

    /// A document as the store's unframed writers spell it, one triple per
    /// `(subject, predicate, object)` pick: subjects that repeat (blank ones
    /// too), every literal kind, and characters the writers escape.
    fn written_document(format: RdfFormat, picks: &[(u8, u8, u8)]) -> Vec<u8> {
        use crate::store::ProvenanceStore;
        use provio_rdf::{BlankNode, Literal};
        let triples = picks.iter().map(|&(s, p, o)| {
            let subject = match s % 6 {
                5 => Subject::Blank(BlankNode::new(format!("b{}", s % 2))),
                s => Subject::iri(format!("{}activity/p7/write-{s}", ns::PROVIO)),
            };
            let predicate = match p % 3 {
                0 => Iri::new(ns::RDF_TYPE),
                1 => Iri::new(format!("{}wasWrittenBy", ns::PROVIO)),
                _ => Iri::new("urn:test:label"),
            };
            let object = match o % 6 {
                0 => Term::iri(format!("{}Write", ns::PROVIO)),
                1 => Term::Literal(Literal::integer(i64::from(o))),
                2 => Term::plain(format!("no. {o}. \"quoted\" <tag>\n\tnext \\ \u{e9}")),
                3 => Term::Literal(Literal::lang_tagged(format!("x{o}"), "en")),
                4 => Term::iri(format!("urn:test:o{}", o % 4)),
                _ => Term::Blank(BlankNode::new("b0")),
            };
            Triple::new(subject, predicate, object)
        });
        let fs = FileSystem::new(LustreConfig::default());
        let path = format!("/w/doc.{}", format.extension());
        let store = ProvenanceStore::new(Arc::clone(&fs), path.clone(), format, false);
        store.push(triples.collect(), None);
        store.finish(None);
        read_file(&fs, &path).expect("the store committed its document")
    }

    /// `process_file` on `bytes` under `name` gives what the two-pass
    /// reference gives: the same terms in the same order, the same id log,
    /// the same `salvaged` flag — or, both, nothing recoverable.
    fn reads_as_the_two_pass_reference(name: &str, bytes: &[u8]) {
        let fs = FileSystem::new(LustreConfig::default());
        let path = format!("/d/{name}");
        write_file(&fs, &path, bytes);
        if std::str::from_utf8(bytes).is_ok_and(|t| frame::decode(t) != Err(frame::FrameError::NotFramed)) {
            return; // not an unframed document any more
        }
        let want = two_pass_reference(names::parse(&path).syntax(), bytes);
        let got = process_file(&fs, &path, &HashSet::new(), None);
        let doc = String::from_utf8_lossy(bytes);
        match (got, want) {
            (Outcome::Corrupt, None) => {}
            (Outcome::Sub { sub, salvaged, .. }, Some((graph, flag))) => {
                assert!(
                    sub.terms() == graph.terms() && sub.ids_from(0) == graph.ids_from(0),
                    "{name}: {} triples, reference {}, on {doc:?}",
                    sub.len(),
                    graph.len()
                );
                assert_eq!(salvaged, flag, "{name}: the salvaged flag on {doc:?}");
            }
            (Outcome::Corrupt, Some(_)) => panic!("{name}: corrupt, the reference recovered {doc:?}"),
            _ => panic!("{name}: an outcome the reference has no name for, on {doc:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Unframed documents the store's writers spell — Turtle under
        /// `.ttl`, N-Triples under `.nt`, either under an extension that
        /// names neither — read as the two-pass reference reads them:
        /// whole, cut at every line boundary, and after each of a few
        /// single-byte `mutate` edits.
        #[test]
        fn one_pass_reads_as_the_two_pass_reference(
            picks in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
            edits in proptest::collection::vec((any::<usize>(), any::<usize>()), 16..17),
        ) {
            for format in [RdfFormat::Turtle, RdfFormat::NTriples] {
                let doc = written_document(format, &picks);
                for name in [format!("prov_p1.{}", format.extension()), "prov_p1.rdf".to_string()] {
                    reads_as_the_two_pass_reference(&name, &doc);
                    for cut in doc.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1) {
                        reads_as_the_two_pass_reference(&name, &doc[..cut]);
                    }
                    for &(at, bit) in &edits {
                        let mut damaged = doc.clone();
                        crate::frame::tests::mutate(&mut damaged, 0, at, bit);
                        reads_as_the_two_pass_reference(&name, &damaged);
                    }
                }
            }
        }
    }

    #[test]
    fn missing_dir_is_empty_merge() {
        let fs = FileSystem::new(LustreConfig::default());
        let (g, report) = merge_directory(&fs, "/nowhere");
        assert!(g.is_empty());
        assert_eq!(report.files, 0);
    }

    #[test]
    fn parallel_and_sequential_merges_are_identical() {
        let fs = FileSystem::new(LustreConfig::default());
        // A messy directory: committed files, a shadowed tmp, an orphan
        // tmp, a torn file, and a corrupt file.
        for i in 0..20 {
            write_file(
                &fs,
                &format!("/provio/prov_p{i}.nt"),
                format!("<urn:s{i}> <urn:p> <urn:o{i}> .\n<urn:shared> <urn:p> <urn:o> .\n")
                    .as_bytes(),
            );
        }
        write_file(&fs, "/provio/prov_p0.nt.tmp", b"<urn:x> <urn:p> \"tor");
        write_file(&fs, "/provio/orphan.nt.tmp", b"<urn:orphan> <urn:p> <urn:o> .\n");
        write_file(&fs, "/provio/torn.nt", b"<urn:t> <urn:p> <urn:o> .\n<urn:u> <urn:p> \"x");
        write_file(&fs, "/provio/bad.nt", b"%%% nothing valid %%%\n");
        // Framed files too: one clean, one with a rotten batch (batch
        // corruption is reported in place, not renamed, so the directory is
        // byte-identical for the second merge).
        write_framed(
            &fs,
            "/provio/framed.nt",
            FrameKind::Snapshot,
            0,
            frame::CHAIN_START,
            "<urn:f> <urn:p> <urn:o> .\n",
            64,
        );
        let (text, _) = frame::tests::encode(
            FrameKind::Snapshot,
            frame::store_guid("/provio/rotten.nt"),
            0,
            frame::CHAIN_START,
            "<urn:r1> <urn:p> <urn:o> .\n<urn:r2> <urn:p> <urn:o> .\n",
            1,
        );
        write_file(
            &fs,
            "/provio/rotten.nt",
            text.replace("<urn:r1>", "<urn:RX>").as_bytes(),
        );
        let (gp, rp) = merge_with_pool(&fs, "/provio", 4);
        let (gs, rs) = merge_with_pool(&fs, "/provio", 1);
        assert_eq!(
            ntriples::serialize(&gp),
            ntriples::serialize(&gs),
            "identical triple set, byte for byte in canonical form"
        );
        assert_eq!(rp.files, rs.files);
        assert_eq!(rp.triples, rs.triples);
        assert_eq!(rp.corrupt, rs.corrupt);
        assert_eq!(rp.recovered, rs.recovered);
        assert_eq!(rp.salvaged_triples, rs.salvaged_triples);
        assert_eq!(rp.quarantined, rs.quarantined);
        assert_eq!(rp.salvaged_batches, rs.salvaged_batches);
        assert_eq!(rp.chain_breaks, rs.chain_breaks);
        assert_eq!(rp.replayed_triples, rs.replayed_triples);
        assert_eq!(rp.wal_tails_truncated, rs.wal_tails_truncated);
        assert_eq!(rp.recovered, vec!["/provio/orphan.nt.tmp".to_string()]);
        assert_eq!(
            rp.corrupt,
            vec!["/provio/bad.nt".to_string(), "/provio/rotten.nt".to_string()]
        );
        assert_eq!(rp.salvaged_batches, 1);
        assert_eq!(rp.chain_breaks, 0);
    }

    #[test]
    fn snapshot_plus_delta_segments_merge_to_full_subgraph() {
        let fs = FileSystem::new(LustreConfig::default());
        // What a periodically-flushing store leaves mid-run: a snapshot
        // plus two uncompacted delta segments (overlap with the snapshot is
        // deliberate — compaction may race a crash, duplicates must
        // collapse).
        write_file(
            &fs,
            "/provio/prov_p0.nt",
            b"<urn:a> <urn:p> <urn:1> .\n<urn:a> <urn:p> <urn:2> .\n",
        );
        write_file(
            &fs,
            "/provio/prov_p0.nt.d000000.nt",
            b"<urn:a> <urn:p> <urn:2> .\n<urn:a> <urn:p> <urn:3> .\n",
        );
        write_file(&fs, "/provio/prov_p0.nt.d000001.nt", b"<urn:a> <urn:p> <urn:4> .\n");
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 3, "snapshot and both segments contribute");
        assert_eq!(g.len(), 4, "duplicate triples collapse");
        assert!(report.corrupt.is_empty());
    }

    /// Encode `payload` in the checksummed framing under `path`'s own store
    /// GUID and write it; returns the chain value for the store's next file.
    fn write_framed(
        fs: &Arc<FileSystem>,
        path: &str,
        kind: FrameKind,
        ordinal: u64,
        prev: u32,
        payload: &str,
        batch_lines: usize,
    ) -> u32 {
        let (text, chain) =
            frame::tests::encode(kind, frame::store_guid(path), ordinal, prev, payload, batch_lines);
        write_file(fs, path, text.as_bytes());
        chain
    }

    #[test]
    fn framed_snapshot_and_segments_merge_with_unbroken_chain() {
        let fs = FileSystem::new(LustreConfig::default());
        let c0 = write_framed(
            &fs,
            "/provio/prov_p9.nt",
            FrameKind::Snapshot,
            0,
            frame::CHAIN_START,
            "<urn:a> <urn:p> <urn:1> .\n",
            64,
        );
        let c1 = write_framed(
            &fs,
            "/provio/prov_p9.nt.d000000.nt",
            FrameKind::Delta,
            1,
            c0,
            "<urn:a> <urn:p> <urn:2> .\n",
            64,
        );
        write_framed(
            &fs,
            "/provio/prov_p9.nt.d000001.nt",
            FrameKind::Delta,
            2,
            c1,
            "<urn:a> <urn:p> <urn:3> .\n",
            64,
        );
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 3);
        assert_eq!(g.len(), 3);
        assert!(report.corrupt.is_empty());
        assert!(report.quarantined.is_empty());
        assert_eq!(report.chain_breaks, 0);
        assert_eq!(report.salvaged_batches, 0);
        assert_eq!(report.salvaged_triples, 0);
    }

    #[test]
    fn corrupt_batch_is_dropped_and_intact_siblings_salvaged() {
        let fs = FileSystem::new(LustreConfig::default());
        let payload =
            "<urn:a> <urn:p> <urn:1> .\n<urn:b> <urn:p> <urn:2> .\n<urn:c> <urn:p> <urn:3> .\n";
        let (text, _) = frame::tests::encode(
            FrameKind::Snapshot,
            frame::store_guid("/provio/prov_p7.nt"),
            0,
            frame::CHAIN_START,
            payload,
            1, // one line per batch: damage stays contained
        );
        // Bit rot lands inside the middle batch's payload.
        let rotten = text.replace("<urn:b>", "<urn:X>");
        write_file(&fs, "/provio/prov_p7.nt", rotten.as_bytes());
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 1);
        assert_eq!(g.len(), 2, "intact batches still contribute");
        assert_eq!(report.corrupt, vec!["/provio/prov_p7.nt".to_string()]);
        assert_eq!(report.salvaged_batches, 2);
        assert_eq!(report.salvaged_triples, 2);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.chain_breaks, 0, "identity still verifies");
        let merged = ntriples::serialize(&g);
        assert!(!merged.contains("urn:X"), "the forged value must not merge");
        assert!(!merged.contains("urn:2"), "the damaged batch is dropped whole");
    }

    #[test]
    fn a_verified_payload_that_stops_parsing_is_reported_corrupt() {
        let fs = FileSystem::new(LustreConfig::default());
        // Every CRC verifies, but the third line holds an escape no writer
        // spells: what a rewrite with patched CRCs can leave behind.
        let payload = "<urn:a> <urn:p> <urn:1> .\n<urn:b> <urn:p> <urn:2> .\n\
            <urn:c> <urn:p> \"bad \\q escape\" .\n<urn:d> <urn:p> <urn:4> .\n<urn:e> <urn:p> <urn:5> .\n";
        write_framed(&fs, "/provio/prov_p3.nt", FrameKind::Snapshot, 0, frame::CHAIN_START, payload, 64);
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(g.len(), 2, "the lines before the stop merge");
        assert_eq!(report.files, 1);
        assert_eq!(report.corrupt, vec!["/provio/prov_p3.nt".to_string()]);
        assert_eq!(report.salvaged_triples, 2);
        assert_eq!(report.salvaged_batches, 0, "no batch failed its CRC");
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn unverifiable_header_quarantines_the_file() {
        let fs = FileSystem::new(LustreConfig::default());
        let (text, _) = frame::tests::encode(
            FrameKind::Snapshot,
            frame::store_guid("/provio/prov_p6.nt"),
            3,
            0x1234_5678,
            "<urn:evil> <urn:p> <urn:o> .\n",
            64,
        );
        // Header tampering: the footer's chain value no longer matches.
        let tampered = text.replace("ordinal=3", "ordinal=4");
        write_file(&fs, "/provio/prov_p6.nt", tampered.as_bytes());
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 0);
        assert!(g.is_empty(), "nothing from a quarantined file merges");
        assert_eq!(report.quarantined, vec!["/provio/prov_p6.nt".to_string()]);
        assert!(report.corrupt.is_empty());
        assert!(
            fs.lookup("/provio/prov_p6.nt").is_err(),
            "the original path is gone"
        );
        assert!(
            fs.lookup("/provio/prov_p6.nt.quarantine").is_ok(),
            "condemned under the .quarantine suffix"
        );
    }

    #[test]
    fn quarantine_is_idempotent_across_remerges() {
        let fs = FileSystem::new(LustreConfig::default());
        write_file(&fs, "/provio/prov_p0.nt", b"<urn:a> <urn:p> <urn:b> .\n");
        let (text, _) = frame::tests::encode(
            FrameKind::Snapshot,
            frame::store_guid("/provio/prov_p8.nt"),
            0,
            frame::CHAIN_START,
            "<urn:q> <urn:p> <urn:o> .\n",
            64,
        );
        write_file(
            &fs,
            "/provio/prov_p8.nt",
            text.replace("kind=snapshot", "kind=delta").as_bytes(),
        );
        let (g1, r1) = merge_directory(&fs, "/provio");
        assert_eq!(r1.quarantined, vec!["/provio/prov_p8.nt".to_string()]);
        // Second merge over the same directory: the .quarantine file is
        // neither re-parsed nor re-renamed, and the verdict is not
        // re-reported — the damage was already accounted once.
        let (g2, r2) = merge_directory(&fs, "/provio");
        assert!(r2.quarantined.is_empty());
        assert!(r2.corrupt.is_empty());
        assert_eq!(r2.files, r1.files);
        assert_eq!(g2.len(), g1.len());
        assert!(fs.lookup("/provio/prov_p8.nt.quarantine").is_ok());
        assert!(
            fs.lookup("/provio/prov_p8.nt.quarantine.quarantine").is_err(),
            "no double rename"
        );
    }

    #[test]
    fn substituted_guid_is_quarantined_and_breaks_the_chain() {
        let fs = FileSystem::new(LustreConfig::default());
        // A perfectly valid framed file... for a different store. Dropping
        // it over prov_p1's snapshot is substitution: its checksums verify
        // but its identity is wrong.
        let (text, _) = frame::tests::encode(
            FrameKind::Snapshot,
            frame::store_guid("/provio/prov_p2.nt"),
            0,
            frame::CHAIN_START,
            "<urn:forged> <urn:p> <urn:o> .\n",
            64,
        );
        write_file(&fs, "/provio/prov_p1.nt", text.as_bytes());
        let (g, report) = merge_directory(&fs, "/provio");
        assert!(g.is_empty());
        assert_eq!(report.quarantined, vec!["/provio/prov_p1.nt".to_string()]);
        assert_eq!(report.chain_breaks, 1, "displaced history is a chain break");
    }

    #[test]
    fn missing_segment_is_a_chain_break_but_survivors_merge() {
        let fs = FileSystem::new(LustreConfig::default());
        let c0 = write_framed(
            &fs,
            "/provio/prov_p5.nt",
            FrameKind::Snapshot,
            0,
            frame::CHAIN_START,
            "<urn:a> <urn:p> <urn:1> .\n",
            64,
        );
        // Segment ordinal 1 was lost; ordinal 2 carries a prev no survivor
        // can produce.
        let (lost_seg, c1) = frame::tests::encode(
            FrameKind::Delta,
            frame::store_guid("/provio/prov_p5.nt.d000000.nt"),
            1,
            c0,
            "<urn:a> <urn:p> <urn:2> .\n",
            64,
        );
        let _ = lost_seg; // never written: this is the hole in history
        write_framed(
            &fs,
            "/provio/prov_p5.nt.d000001.nt",
            FrameKind::Delta,
            2,
            c1,
            "<urn:a> <urn:p> <urn:3> .\n",
            64,
        );
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 2, "both surviving files merge");
        assert_eq!(g.len(), 2);
        assert_eq!(report.chain_breaks, 1, "the gap is evidence of loss");
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn stale_pre_snapshot_segments_are_not_chain_breaks() {
        let fs = FileSystem::new(LustreConfig::default());
        // Compaction wrote a fresh snapshot at ordinal 2 but crashed before
        // unlinking the segments it folded in. The gap *below* the newest
        // snapshot is normal operation, not damage.
        let c0 = write_framed(
            &fs,
            "/provio/prov_p4.nt.d000000.nt",
            FrameKind::Delta,
            0,
            frame::CHAIN_START,
            "<urn:a> <urn:p> <urn:1> .\n",
            64,
        );
        let _c1 = write_framed(
            &fs,
            "/provio/prov_p4.nt.d000001.nt",
            FrameKind::Delta,
            1,
            c0,
            "<urn:a> <urn:p> <urn:2> .\n",
            64,
        );
        let c2 = write_framed(
            &fs,
            "/provio/prov_p4.nt",
            FrameKind::Snapshot,
            2,
            0xDEAD_BEEF, // prev of a snapshot is unchecked history
            "<urn:a> <urn:p> <urn:1> .\n<urn:a> <urn:p> <urn:2> .\n",
            64,
        );
        write_framed(
            &fs,
            "/provio/prov_p4.nt.d000002.nt",
            FrameKind::Delta,
            3,
            c2,
            "<urn:a> <urn:p> <urn:3> .\n",
            64,
        );
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 4);
        assert_eq!(g.len(), 3, "duplicates collapse");
        assert_eq!(report.chain_breaks, 0);
    }

    #[test]
    fn torn_orphan_tmp_is_recovered_exactly_once() {
        let fs = FileSystem::new(LustreConfig::default());
        // One file that is BOTH an orphan tmp (no committed base) and torn
        // (salvage path): it must appear in `recovered` exactly once, not
        // once per condition.
        write_file(
            &fs,
            "/provio/prov_p3.nt.tmp",
            b"<urn:a> <urn:p> <urn:b> .\n<urn:c> <urn:p> \"to",
        );
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.recovered, vec!["/provio/prov_p3.nt.tmp".to_string()]);
        assert_eq!(report.salvaged_triples, 1);
        assert_eq!(report.files, 1);
        assert_eq!(g.len(), 1);
    }

    /// Append journal chunks under `path`'s store GUID: each group is
    /// `(first record ordinal, lines)`, chained like the store's own
    /// group commits. Returns the file body for further tampering.
    fn write_wal(fs: &Arc<FileSystem>, path: &str, groups: &[(u64, &[&str])]) -> Vec<u8> {
        let guid = frame::store_guid(path);
        let mut chain = frame::CHAIN_START;
        let mut bytes = Vec::new();
        for (ordinal, lines) in groups {
            let mut enc = frame::Encoder::new(FrameKind::Wal, guid, *ordinal, chain);
            enc.batch(lines);
            let (chunk, c) = enc.finish();
            bytes.extend_from_slice(&chunk);
            chain = c;
        }
        write_file(fs, path, &bytes);
        bytes
    }

    #[test]
    fn wal_replays_only_records_above_the_committed_watermark() {
        let fs = FileSystem::new(LustreConfig::default());
        // Committed history covers records 0 and 1...
        write_framed(
            &fs,
            "/provio/prov_p0.nt",
            FrameKind::Snapshot,
            0,
            frame::CHAIN_START,
            "<urn:s0> <urn:p> <urn:o> .\n<urn:s1> <urn:p> <urn:o> .\n",
            64,
        );
        // ...but the store crashed between the snapshot commit and the
        // journal recycle: the stale generation still holds records 0..4.
        write_wal(
            &fs,
            "/provio/prov_p0.nt.w000000.nt",
            &[
                (0, &["<urn:s0> <urn:p> <urn:o> .", "<urn:s1> <urn:p> <urn:o> ."][..]),
                (2, &["<urn:s2> <urn:p> <urn:o> .", "<urn:s3> <urn:p> <urn:o> ."][..]),
            ],
        );
        let (g, r) = merge_directory(&fs, "/provio");
        assert_eq!(g.len(), 4, "nothing lost, nothing double-counted");
        assert_eq!(r.replayed_triples, 2, "only the uncommitted records replay");
        assert_eq!(r.wal_tails_truncated, 0);
        assert_eq!(r.files, 1, "the journal is not a sub-graph file");
        assert_eq!(r.chain_breaks, 0);
        assert!(r.corrupt.is_empty());
        // Re-merging the same directory is idempotent: the journal is
        // re-read, the same records filtered, the same counts reported.
        let (g2, r2) = merge_directory(&fs, "/provio");
        assert_eq!(g2.len(), g.len());
        assert_eq!(r2.replayed_triples, r.replayed_triples);
    }

    const LEGACY_TTL: &str = "@prefix ex: <urn:ex:> .\n\
        ex:a ex:p \"x\"@en ;\n    ex:q ex:b .\n\
        _:n ex:p ex:shared .\n";
    const P0_SNAPSHOT: &str = "<urn:ex:a> <urn:ex:q> <urn:ex:b> .\n\
        <urn:p0> <urn:ex:p> \"0\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
    const P0_SEGMENT: &str = "<urn:p0> <urn:ex:p> <urn:d0> .\n";
    /// The journal's records 3 and 4, above the watermark (snapshot 2 +
    /// segment 1); record 4 is already in the graph.
    const P0_REPLAY: [&str; 2] =
        ["<urn:w3> <urn:ex:p> <urn:ex:shared> .", "<urn:ex:a> <urn:ex:q> <urn:ex:b> ."];
    const P2_SNAPSHOT: &str =
        "<urn:ex:shared> <urn:ex:p> <urn:p2> .\n<urn:ex:a> <urn:ex:q> <urn:ex:b> .\n";

    /// One of each input the fold takes, in directory order: a legacy
    /// Turtle file, a framed snapshot plus segment, their journal with two
    /// records to replay, a file that quarantines, and a second store; a
    /// triple shared by four of them.
    fn fold_fixture() -> Arc<FileSystem> {
        let fs = FileSystem::new(LustreConfig::default());
        write_file(&fs, "/provio/legacy.ttl", LEGACY_TTL.as_bytes());
        let start = frame::CHAIN_START;
        let c0 = write_framed(&fs, "/provio/prov_p0.nt", FrameKind::Snapshot, 0, start, P0_SNAPSHOT, 1);
        write_framed(&fs, "/provio/prov_p0.nt.d000000.nt", FrameKind::Delta, 1, c0, P0_SEGMENT, 64);
        let committed: Vec<&str> = P0_SNAPSHOT.lines().chain(P0_SEGMENT.lines()).collect();
        write_wal(&fs, "/provio/prov_p0.nt.w000000.nt", &[(0, &committed[..]), (3, &P0_REPLAY[..])]);
        let (text, _) = frame::tests::encode(
            FrameKind::Snapshot,
            frame::store_guid("/provio/prov_p1.nt"),
            0,
            start,
            "<urn:evil> <urn:ex:p> <urn:o> .\n",
            64,
        );
        write_file(&fs, "/provio/prov_p1.nt", text.replace("ordinal=0", "ordinal=1").as_bytes());
        write_framed(&fs, "/provio/prov_p2.nt", FrameKind::Snapshot, 0, start, P2_SNAPSHOT, 64);
        fs
    }

    #[test]
    fn the_fold_assigns_the_ids_and_order_of_a_sequential_reference_fold() {
        // The reference: each contributing file parsed alone, folded with
        // `Graph::merge` in directory order, then the journal's replay.
        let nt = |text: &str| ntriples::parse(text).unwrap();
        let mut want = turtle::parse(LEGACY_TTL).unwrap().0;
        for text in [P0_SNAPSHOT, P0_SEGMENT, P2_SNAPSHOT] {
            want.merge(&nt(text));
        }
        assert_eq!(want.merge(&nt(&(P0_REPLAY.join("\n") + "\n"))), 1);
        let want_report = MergeReport {
            files: 4,
            triples: want.len(),
            quarantined: vec!["/provio/prov_p1.nt".into()],
            replayed_triples: 1,
            ..MergeReport::default()
        };
        for threads in [1, 2, 4] {
            let fs = fold_fixture();
            let (g, report) = merge_with_pool(&fs, "/provio", threads);
            assert_eq!(report, want_report, "{threads} threads");
            assert_eq!(g.terms(), want.terms(), "{threads} threads: term ids");
            assert!(g.iter_ids().eq(want.iter_ids()), "{threads} threads: insertion order");
        }
    }

    #[test]
    fn journal_alone_recovers_a_rank_that_never_flushed() {
        let fs = FileSystem::new(LustreConfig::default());
        // The rank crashed before its first flush: no snapshot, no
        // segments — only the journal survives.
        write_wal(
            &fs,
            "/provio/prov_p3.nt.w000000.nt",
            &[
                (0, &["<urn:a> <urn:p> <urn:1> ."][..]),
                (1, &["<urn:a> <urn:p> <urn:2> ."][..]),
            ],
        );
        let (g, r) = merge_directory(&fs, "/provio");
        assert_eq!(g.len(), 2);
        assert_eq!(r.replayed_triples, 2);
        assert_eq!(r.files, 0);
        assert!(r.corrupt.is_empty());
    }

    #[test]
    fn rotted_journal_tail_is_truncated_and_counted_never_parsed() {
        let fs = FileSystem::new(LustreConfig::default());
        let path = "/provio/prov_p4.nt.w000000.nt";
        let guid = frame::store_guid(path);
        let mut enc = frame::Encoder::new(FrameKind::Wal, guid, 0, frame::CHAIN_START);
        enc.batch(&["<urn:kept> <urn:p> <urn:o> ."]);
        let (mut bytes, chain) = enc.finish();
        let mut enc = frame::Encoder::new(FrameKind::Wal, guid, 1, chain);
        enc.batch(&["<urn:dropped> <urn:p> <urn:o> ."]);
        let (tail, _) = enc.finish();
        bytes.extend_from_slice(&tail);
        // Rot lands in the second chunk's payload: its CRC no longer
        // verifies, so the chunk and everything after it are cut off.
        let rotted = String::from_utf8(bytes)
            .unwrap()
            .replace("urn:dropped", "urn:forged!");
        write_file(&fs, path, rotted.as_bytes());
        let (g, r) = merge_directory(&fs, "/provio");
        assert_eq!(r.wal_tails_truncated, 1);
        assert_eq!(r.replayed_triples, 1, "the verified prefix still replays");
        let merged = ntriples::serialize(&g);
        assert!(merged.contains("urn:kept"));
        assert!(!merged.contains("forged"), "rotted records never parse");
        assert!(r.quarantined.is_empty(), "journals are truncated, not quarantined");
    }

    #[test]
    fn journal_generation_tmp_is_never_adopted() {
        let fs = FileSystem::new(LustreConfig::default());
        // A crash inside journal-generation creation leaves `<gen>.tmp`
        // behind; unlike a store tmp it must not be adopted as a sub-graph.
        write_file(
            &fs,
            "/provio/prov_p5.nt.w000002.nt.tmp",
            b"<urn:x> <urn:p> <urn:o> .\n",
        );
        let (g, r) = merge_directory(&fs, "/provio");
        assert!(g.is_empty());
        assert_eq!(r.files, 0);
        assert_eq!(r.replayed_triples, 0);
        assert!(r.recovered.is_empty());
        assert!(r.corrupt.is_empty());
    }

    #[test]
    fn display_carries_every_counter() {
        let report = MergeReport {
            files: 5,
            triples: 420,
            corrupt: vec!["/provio/a.nt".into()],
            recovered: vec!["/provio/b.nt.tmp".into()],
            salvaged_triples: 7,
            quarantined: vec!["/provio/c.nt".into()],
            salvaged_batches: 3,
            chain_breaks: 2,
            replayed_triples: 9,
            wal_tails_truncated: 1,
        };
        let line = report.to_string();
        for needle in [
            "5 files",
            "420 triples",
            "7 salvaged (3 batches)",
            "9 replayed",
            "1 files lost",
            "1 recovered",
            "1 quarantined",
            "2 chain breaks",
            "1 journal tails truncated",
        ] {
            assert!(line.contains(needle), "missing {needle:?} in {line}");
        }
    }

    #[test]
    fn trust_artifacts_are_never_merged_or_adopted() {
        let fs = FileSystem::new(LustreConfig::default());
        write_file(&fs, "/provio/prov_p0.nt", b"<urn:a> <urn:p> <urn:b> .\n");
        // Neither the manifest, the ledger, nor a torn manifest tmp is a
        // sub-graph: none may merge, none may be reported corrupt, and the
        // orphan-tmp adoption path must not claim the tmp.
        write_file(&fs, "/provio/MANIFEST.provio", b"# PROVIO-MANIFEST1 not rdf\n");
        write_file(&fs, "/provio/MANIFEST.provio.tmp", b"# torn manife");
        write_file(&fs, "/provio/CAMPAIGN.provio", b"# PROVIO1 kind=wal ledger\n");
        let (g, r) = merge_directory(&fs, "/provio");
        assert_eq!(r.files, 1);
        assert_eq!(g.len(), 1);
        assert!(r.corrupt.is_empty(), "corrupt: {:?}", r.corrupt);
        assert!(r.recovered.is_empty(), "recovered: {:?}", r.recovered);
        assert!(r.quarantined.is_empty());
    }

    #[test]
    fn mixed_formats_merge() {
        let fs = FileSystem::new(LustreConfig::default());
        for (pid, fmt) in [(0u32, RdfFormat::Turtle), (1, RdfFormat::NTriples)] {
            let cfg = ProvIoConfig::default().with_format(fmt).shared();
            let t = ProvTracker::new(cfg, Arc::clone(&fs), pid, "B", "p", VirtualClock::new());
            t.track_io(&event("/d"));
            t.finish();
        }
        let (g, report) = merge_directory(&fs, "/provio");
        assert_eq!(report.files, 2);
        assert_eq!(nodes_of_class(&g, EntityClass::Dataset.into()).len(), 1);
        assert_eq!(nodes_of_class(&g, ActivityClass::Write.into()).len(), 2);
    }

    /// One of every kind of artifact a run directory holds, as a small real
    /// run wrote them: framed N-Triples snapshot and segment, journal,
    /// parity files of both planes, a framed `.ttl` snapshot (N-Triples
    /// inside, as every frame), an unframed Turtle and an unframed
    /// N-Triples one, the manifest and the ledger.
    fn artifacts() -> &'static [Vec<u8>] {
        static ARTIFACTS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        ARTIFACTS.get_or_init(|| {
            use crate::store::ProvenanceStore;
            use provio_rdf::{Iri, Subject, Term, Triple};
            let fs = FileSystem::new(LustreConfig::default());
            let triples = |from: usize| -> Vec<Triple> {
                (from..from + 6)
                    .map(|i| Triple::new(Subject::iri(format!("urn:s{i}")), Iri::new("urn:p"), Term::plain("v")))
                    .collect()
            };
            let store = |name: &str, format| ProvenanceStore::new(Arc::clone(&fs), format!("/a/{name}"), format, false);
            let durable = store("d.nt", RdfFormat::NTriples)
                .with_checksums(true)
                .with_wal(true, 2)
                .with_parity(true, 2)
                .with_compact_every(0);
            for flush in 0..3 {
                durable.push(triples(flush * 6), None);
                durable.flush(None);
            }
            durable.push(triples(18), None);
            durable.push(triples(24), None);
            durable.wal_sync();
            for st in [
                store("framed.ttl", RdfFormat::Turtle).with_checksums(true),
                store("legacy.ttl", RdfFormat::Turtle),
                store("legacy.nt", RdfFormat::NTriples),
            ] {
                st.push(triples(0), None);
                st.finish(None);
            }
            crate::verify::seal_run(&fs, "/a", "key", &[]).unwrap();
            let files = fs.walk_files("/a").unwrap();
            for role in ["d.nt.d", "d.nt.w", "d.nt.p", "MANIFEST", "CAMPAIGN"] {
                assert!(files.iter().any(|p| p.contains(role)), "no {role} among {files:?}");
            }
            files.iter().map(|p| read_file(&fs, p).unwrap()).collect()
        })
    }

    /// One damaged artifact: which valid artifact (or the arbitrary
    /// bytes), and the mutations applied to it.
    type Damage = (proptest::sample::Index, Vec<u8>, Vec<(u8, usize, usize)>);

    fn damage() -> impl proptest::Strategy<Value = Damage> {
        (
            proptest::any::<proptest::sample::Index>(),
            proptest::collection::vec(proptest::any::<u8>(), 0..120),
            crate::frame::tests::mutations(),
        )
    }

    /// `process_file` never panics, whatever artifact, however damaged,
    /// sits under whatever role's name. `merge_directory` calls it with no
    /// containment, so a decoder or parser panic fails this property
    /// instead of being reported as one more corrupt file.
    fn process_file_never_panics((pick, arbitrary, ops): Damage) {
        let valid = artifacts();
        let mut data = match pick.index(valid.len() + 1) {
            i if i < valid.len() => valid[i].clone(),
            _ => arbitrary,
        };
        for &(kind, a, b) in &ops {
            crate::frame::tests::mutate(&mut data, kind, a, b);
        }
        let fs = FileSystem::new(LustreConfig::default());
        for name in [
            "prov_p1.nt",
            "prov_p1.ttl",
            "prov_p1.rdf",
            "prov_p1.nt.d000001.nt",
            "prov_p1.nt.w000000.nt",
            "prov_p1.nt.p000000.par",
            "MANIFEST.provio",
            "CAMPAIGN.provio",
            "prov_p1.nt.quarantine",
            "prov_p2.nt.tmp",
            "prov_p2.ttl.d000003.nt.tmp",
            "prov_p2.nt.w000001.nt.tmp",
        ] {
            write_file(&fs, &format!("/d/{name}"), &data);
        }
        let files = fs.walk_files("/d").unwrap();
        let committed: HashSet<&str> = files.iter().map(String::as_str).collect();
        for path in &files {
            process_file(&fs, path, &committed, None);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn process_file_never_panics_unguarded(case in damage()) {
            process_file_never_panics(case);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        /// The same property at 20 000 cases, deep enough to reach the
        /// rare decoder paths: CI's nightly job runs it (`-- --ignored`),
        /// tier-1 does not.
        #[test]
        #[ignore]
        fn process_file_never_panics_unguarded_nightly(case in damage()) {
            process_file_never_panics(case);
        }
    }
}
