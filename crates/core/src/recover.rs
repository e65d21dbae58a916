//! `recover_all` — the full recovery pipeline as one auditable pass.
//!
//! Every consumer of a run directory so far composed the tiers by hand:
//! scrub, then merge (with WAL replay), then verify, then quarantine.
//! Crashcheck (DESIGN.md §15) checks invariants of *the composition* —
//! e.g. that recovering twice equals recovering once — so the
//! composition itself has to be a named, fixed-order operation. This is
//! that operation, and the one the upcoming streaming-merge daemon will
//! call on every watched directory.
//!
//! Order matters and is part of the contract:
//!
//! 1. **Scrub** first — parity repair restores rotted or lost members
//!    byte-identical, so the merge and the verify that follow see the
//!    healed bytes and quarantine stays the over-tolerance fallback.
//! 2. **Merge** — salvage, WAL replay above the committed watermark,
//!    identity quarantine.
//! 3. **Verify** (when a campaign key is supplied) — audit the signed
//!    manifest and ledger over the post-repair directory, then move
//!    provably tampered files aside.
//!
//! Every mutation any stage performs goes through the same simulated,
//! fault-injectable file system with tmp+rename discipline, so a crash
//! *during* recovery is itself one of crashcheck's explored states.

use std::sync::Arc;

use provio_hpcfs::FileSystem;
use provio_rdf::Graph;

use crate::merge::{merge_directory, MergeReport};
use crate::report::RunReport;
use crate::scrub::{scrub_directory, ScrubReport};
use crate::verify::{quarantine_tampered, verify_directory, VerifyReport};

/// Everything one recovery pass produced: the merged graph plus every
/// tier's report, joined on demand by [`RecoveryOutcome::report`].
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The merged provenance graph.
    pub graph: Graph,
    /// What parity repair found and fixed (stage 1).
    pub scrub: ScrubReport,
    /// What the merge recovered, salvaged, replayed and quarantined
    /// (stage 2).
    pub merge: MergeReport,
    /// The trust audit (stage 3); `None` when no key was supplied.
    pub verify: Option<VerifyReport>,
    /// Files moved to `.quarantine` by the post-verify sweep.
    pub quarantined: Vec<String>,
}

impl RecoveryOutcome {
    /// The joined accounting across all stages: every sub-graph the merge
    /// found is one it was expected to find.
    pub fn report(&self) -> RunReport {
        RunReport {
            expected_subgraphs: self.merge.files,
            merge: self.merge.clone(),
            scrub: self.scrub.clone(),
            verify: self.verify.clone(),
            ..RunReport::default()
        }
    }
}

/// Run the full recovery pipeline over `dir`: scrub, merge, and — when
/// `key` is given — verify plus tamper quarantine. Idempotent: a second
/// pass over the same directory yields a byte-identical directory and
/// an equal [`RunReport`] (enforced by crashcheck's invariant I6).
pub fn recover_all(fs: &Arc<FileSystem>, dir: &str, key: Option<&str>) -> RecoveryOutcome {
    let scrub = scrub_directory(fs, dir);
    let (graph, merge) = merge_directory(fs, dir);
    let verify = key.map(|key| verify_directory(fs, dir, key));
    let quarantined = verify
        .as_ref()
        .map_or_else(Vec::new, |audit| quarantine_tampered(fs, audit));
    RecoveryOutcome {
        graph,
        scrub,
        merge,
        verify,
        quarantined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RdfFormat;
    use crate::store::ProvenanceStore;
    use provio_hpcfs::LustreConfig;
    use provio_rdf::{Iri, Subject, Term, Triple};

    fn triples(n: usize) -> Vec<Triple> {
        (0..n)
            .map(|i| {
                Triple::new(
                    Subject::iri(format!("urn:s{i}")),
                    Iri::new("urn:p"),
                    Term::iri("urn:o"),
                )
            })
            .collect()
    }

    #[test]
    fn recover_all_composes_all_tiers() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/r0.nt", RdfFormat::NTriples, false)
            .with_checksums(true);
        st.push(triples(5), None);
        st.finish(None);

        let out = recover_all(&fs, "/prov", None);
        assert_eq!(out.graph.len(), 5);
        assert_eq!(out.merge.files, 1);
        assert!(out.scrub.is_clean());
        assert!(out.verify.is_none());
        assert!(out.quarantined.is_empty());
        assert_eq!(out.report().merge.triples, 5);
        assert!(out.report().is_complete());
    }

    #[test]
    fn recover_all_is_idempotent_on_a_clean_directory() {
        let fs = FileSystem::new(LustreConfig::default());
        let st = ProvenanceStore::new(Arc::clone(&fs), "/prov/r1.nt", RdfFormat::NTriples, false)
            .with_checksums(true);
        st.push(triples(3), None);
        st.finish(None);

        let first = recover_all(&fs, "/prov", None);
        let second = recover_all(&fs, "/prov", None);
        assert_eq!(first.report(), second.report());
        assert_eq!(first.graph.len(), second.graph.len());
    }
}
