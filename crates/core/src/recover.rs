//! `recover_all` — the full recovery pipeline as one auditable pass.
//!
//! Crashcheck (DESIGN.md §15) checks invariants of *the composition* of
//! the recovery tiers — e.g. that recovering twice equals recovering
//! once — so the composition itself is a named, fixed-order operation.
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
//! The tiers share one walk of the directory, taken again only after a
//! repair or a quarantine moved a file, and one hand-off: scrub leaves the
//! Merkle root of every single frame it decoded intact or wrote back, and
//! a snapshot's or segment's decoded frame; merge parses that frame
//! instead of reading the file, verify judges the file from its root. Both
//! take an entry only while the file still has its length, and the map
//! lives for this one call.
//!
//! Every mutation any stage performs goes through the same simulated,
//! fault-injectable file system with tmp+rename discipline, so a crash
//! *during* recovery is itself one of crashcheck's explored states.

use std::sync::Arc;

use provio_hpcfs::FileSystem;
use provio_rdf::Graph;

use crate::artifact::HandOff;
use crate::merge::{merge_listed, MergeReport};
use crate::report::RunReport;
use crate::scrub::{scrub_listed, ScrubReport};
use crate::verify::{quarantine_tampered, verify_listed, VerifyReport};

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
    // One walk serves every tier: only a repair or a quarantine moves a
    // file a later tier lists, and then that tier walks again.
    let walk = || fs.walk_files(dir).unwrap_or_default();
    let (files, mut decoded) = (walk(), HandOff::new());
    let scrub = scrub_listed(fs, &files, &mut decoded);
    let files = if scrub.is_clean() { files } else { walk() };
    let (graph, merge) = merge_listed(fs, &files, &mut decoded);
    let files = if merge.quarantined.is_empty() { files } else { walk() };
    let verify = key.map(|key| verify_listed(fs, dir, &files, key, &decoded));
    let quarantined = verify
        .as_ref()
        .map_or_else(Vec::new, |audit| quarantine_tampered(fs, audit));
    RecoveryOutcome { graph, scrub, merge, verify, quarantined }
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
