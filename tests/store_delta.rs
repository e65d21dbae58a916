//! The store's write protocol against its oracle — any knob mix must merge
//! back to the plain in-memory graph — and the crash consistency of
//! segment appends and compaction.

use proptest::prelude::*;
use prov_io::core::{merge_directory, ProvenanceStore, RdfFormat, RetryPolicy};
use prov_io::hpcfs::{FaultOp, FaultPlan, FaultRule, FileSystem, FsError, LustreConfig};
use prov_io::rdf::{ntriples, Graph, Iri, Subject, Term, Triple};
use std::sync::Arc;

fn triples(range: std::ops::Range<usize>) -> Vec<Triple> {
    range
        .map(|i| {
            Triple::new(
                Subject::iri(format!("urn:s{i}")),
                Iri::new("urn:p"),
                Term::iri(format!("urn:o{}", i % 5)),
            )
        })
        .collect()
}

/// One store configuration of the differential oracle.
#[derive(Debug, Clone)]
struct Knobs {
    format: RdfFormat,
    checksums: bool,
    /// Journal group size, if the journal is on.
    wal: Option<u32>,
    /// Parity group width, if parity is on (only ever with checksums).
    parity: Option<u32>,
    compact_every: u32,
    async_store: bool,
    /// Flush after every this many pushes (0 = only `finish` writes).
    flush_every: usize,
}

fn arb_knobs() -> impl Strategy<Value = Knobs> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>(), 1u32..9),
        (any::<bool>(), 1u32..5, 0u32..5, any::<bool>(), 0usize..6),
    )
        .prop_map(
            |((turtle, checksums, wal, group), (parity, width, compact_every, async_store, flush_every))| {
                Knobs {
                    format: if turtle { RdfFormat::Turtle } else { RdfFormat::NTriples },
                    checksums,
                    wal: wal.then_some(group),
                    parity: (parity && checksums).then_some(width),
                    compact_every,
                    async_store,
                    flush_every,
                }
            },
        )
}

fn lines(g: &Graph) -> Vec<String> {
    ntriples::sorted_graph_lines(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The differential oracle: under any mix of format, planes, compaction
    /// cadence, sync/async and flush cadence, what `merge_directory` reads
    /// back from the store directory is exactly the triple set of a plain
    /// in-memory graph fed the same inserts — mid-run, where the journal
    /// has to cover whatever no flush has committed yet, and after `finish`.
    #[test]
    fn any_knob_mix_merges_to_the_plain_graph(
        knobs in arb_knobs(),
        batches in proptest::collection::vec((0usize..60, 1usize..12), 1..24),
    ) {
        let fs = FileSystem::new(LustreConfig::default());
        let path = format!("/o/prov.{}", knobs.format.extension());
        let st = ProvenanceStore::new(Arc::clone(&fs), path, knobs.format, knobs.async_store)
            .with_checksums(knobs.checksums)
            .with_wal(knobs.wal.is_some(), knobs.wal.unwrap_or(1))
            .with_parity(knobs.parity.is_some(), knobs.parity.unwrap_or(1))
            .with_compact_every(knobs.compact_every);
        let mut reference = Graph::new();
        // What a reader may count on mid-run without a journal: the
        // inserts up to the last flush.
        let mut flushed = Graph::new();
        for (i, &(start, len)) in batches.iter().enumerate() {
            // Overlapping ranges: the store's dedup is part of the oracle.
            let batch = triples(start..start + len);
            for t in &batch {
                reference.insert(t);
            }
            st.push(batch, None);
            if knobs.flush_every > 0 && (i + 1) % knobs.flush_every == 0 {
                st.flush(None);
                flushed = reference.clone();
            }
        }

        // Mid-run. With the journal on, forcing its tail out (which also
        // waits for an async store's queued pushes and flushes) makes every
        // insert durable in a snapshot, a segment or the journal. Without
        // it, a synchronous store owes the reader the last flush; an
        // asynchronous one may still be writing, so it is checked at the
        // end only.
        st.wal_sync();
        let mid_run = match (knobs.wal.is_some(), knobs.async_store) {
            (true, _) => Some(&reference),
            (false, false) => Some(&flushed),
            (false, true) => None,
        };
        if let Some(expected) = mid_run {
            let (merged, report) = merge_directory(&fs, "/o");
            prop_assert!(report.corrupt.is_empty() && report.quarantined.is_empty(), "{knobs:?}: {report}");
            prop_assert_eq!(report.chain_breaks, 0, "{:?}: {}", knobs, report);
            prop_assert_eq!(lines(&merged), lines(expected), "mid-run, {:?}", knobs);
        }

        prop_assert!(st.finish(None) > 0);
        prop_assert_eq!(st.stats().segments, 0, "finish folds every segment");
        let (merged, report) = merge_directory(&fs, "/o");
        prop_assert!(report.corrupt.is_empty() && report.quarantined.is_empty(), "{knobs:?}: {report}");
        prop_assert_eq!(report.chain_breaks, 0, "{:?}: {}", knobs, report);
        prop_assert_eq!(report.replayed_triples, 0, "the final snapshot covers the journal");
        prop_assert_eq!(lines(&merged), lines(&reference), "after finish, {:?}", knobs);
    }
}

#[test]
fn torn_delta_append_salvages_valid_prefix() {
    let fs = FileSystem::new(LustreConfig::default());
    let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/t.nt", RdfFormat::NTriples, false);
    st.push(triples(0..4), None);
    st.flush(None); // snapshot
    st.push(triples(4..8), None);
    st.flush(None); // segment 0, committed clean
    // Tear the next segment append mid-write: keep two complete lines plus
    // a torn third (lines are ~26 bytes).
    let plan = FaultPlan::new(31);
    plan.add_rule(
        FaultRule::crash(FaultOp::WriteAt)
            .on_path("t.nt.d000001.nt.tmp")
            .torn(60),
    );
    fs.install_faults(plan);
    st.push(triples(8..12), None);
    st.flush(None);
    assert_eq!(st.stats().last_error, Some(FsError::Crashed));
    fs.clear_faults();

    let (g, report) = merge_directory(&fs, "/prov");
    // Snapshot (4) + segment 0 (4) recovered whole; the torn orphan tmp is
    // adopted and its valid prefix salvaged.
    assert!(report.corrupt.is_empty(), "torn tmp salvages, never corrupts");
    assert_eq!(
        report.recovered,
        vec!["/prov/t.nt.d000001.nt.tmp".to_string()],
        "orphan segment tmp adopted"
    );
    assert!(report.salvaged_triples >= 1, "prefix lines recovered");
    assert!(g.len() >= 9, "everything durable plus the salvaged prefix");
    for t in triples(0..8) {
        assert!(g.contains(&t), "committed triple lost: {t}");
    }
}

#[test]
fn crash_on_compaction_rename_loses_nothing() {
    let fs = FileSystem::new(LustreConfig::default());
    let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/c.nt", RdfFormat::NTriples, false)
        .with_compact_every(2);
    st.push(triples(0..3), None);
    st.flush(None); // snapshot
    st.push(triples(3..6), None);
    st.flush(None); // segment 0
    // The next flush commits segment 1, then compaction fires and dies at
    // the snapshot rename.
    let plan = FaultPlan::new(32);
    plan.add_rule(FaultRule::crash(FaultOp::Rename).on_path("c.nt.tmp"));
    fs.install_faults(plan);
    st.push(triples(6..9), None);
    st.flush(None);
    assert_eq!(st.stats().last_error, Some(FsError::Crashed));
    fs.clear_faults();

    // Durable state: old snapshot + both segments + the fully-written
    // compaction tmp (shadowed by the committed snapshot). Nothing lost.
    assert!(fs.exists("/prov/c.nt"));
    assert!(fs.exists("/prov/c.nt.d000000.nt"));
    assert!(fs.exists("/prov/c.nt.d000001.nt"));
    assert!(fs.exists("/prov/c.nt.tmp"), "compaction died before rename");
    let (g, report) = merge_directory(&fs, "/prov");
    assert!(report.corrupt.is_empty());
    assert!(report.recovered.is_empty(), "stale compaction tmp shadowed");
    assert_eq!(g.len(), 9, "every pushed triple recovered");
    for t in triples(0..9) {
        assert!(g.contains(&t));
    }
}

#[test]
fn transient_error_on_delta_append_retries_in_place() {
    let fs = FileSystem::new(LustreConfig::default());
    let plan = FaultPlan::new(33);
    plan.add_rule(
        FaultRule::fail(FaultOp::WriteAt, FsError::Io)
            .on_path("r.nt.d000000.nt.tmp")
            .times(1),
    );
    fs.install_faults(Arc::clone(&plan));
    let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/r.nt", RdfFormat::NTriples, false)
        .with_retry(RetryPolicy {
            max_attempts: 3,
            backoff_ns: 100,
            ..RetryPolicy::default()
        });
    st.push(triples(0..2), None);
    st.flush(None); // snapshot
    st.push(triples(2..5), None);
    st.flush(None); // segment 0: first write attempt fails, retry lands
    assert!(!st.degraded(), "transient EIO absorbed by the retry policy");
    assert_eq!(
        st.stats().last_error,
        Some(FsError::Io),
        "retry left a trace"
    );
    assert_eq!(plan.injected(), 1);
    assert_eq!(st.stats().segments, 1);
    let (g, report) = merge_directory(&fs, "/prov");
    assert!(report.corrupt.is_empty());
    assert_eq!(report.salvaged_triples, 0);
    assert_eq!(g.len(), 5);
}
