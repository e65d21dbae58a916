//! Run-level completeness reporting and merged-graph consistency checks.
//!
//! A resilient run (ranks may crash, files may tear, flushes may shed) is
//! only useful if the survivor graph comes with an honest statement of what
//! it covers. This module joins the two sources of truth:
//!
//! * the per-rank [`RankOutcome`]s a superstep returns — who crashed,
//!   where, and why — and
//! * the [`MergeReport`] from [`crate::merge::merge_directory`] — which
//!   per-process sub-graphs were recovered, salvaged, or lost.
//!
//! [`RunReport`] folds both into a single completeness metric
//! (`recovered sub-graphs / expected sub-graphs`), and [`doctor`] runs a
//! structural consistency pass over the merged graph itself, flagging
//! dangling relation edges, activities with no responsible agent, and GUIDs
//! that resolve to more than one class (a content-address collision or a
//! corrupted merge).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use provio_model::{Guid, NodeClass, Relation};
use provio_mpi::RankOutcome;
use provio_rdf::{ns, Graph};

use crate::collect::{DeliveryReport, NetStats};
use crate::merge::MergeReport;
use crate::scrub::ScrubReport;
use crate::tracker::TrackSummary;
use crate::verify::{FileVerdict, VerifyReport};

/// One crashed rank, as witnessed by a superstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankCrash {
    pub rank: u32,
    /// The superstep phase label the rank died in.
    pub phase: String,
    /// The panic payload (e.g. an `ESIMCRASH` message).
    pub cause: String,
}

/// Joined view of a run: which ranks finished, and how much of the
/// provenance they produced survived into the merged graph. The tier
/// reports are held whole, not copied field by field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Ranks the run started with.
    pub world_size: u32,
    /// Ranks that crashed, at most one entry per rank (the first crash
    /// wins — a rank that dies in phase 2 stays dead in phase 3).
    pub crashed: Vec<RankCrash>,
    /// Sub-graphs the merge was expected to recover (typically the number
    /// of surviving ranks, or the world size when crashed ranks' partial
    /// stores are also salvageable).
    pub expected_subgraphs: usize,
    /// What the merge recovered, salvaged, replayed and quarantined.
    pub merge: MergeReport,
    /// What parity repair fixed, and what stayed lost beyond tolerance.
    pub scrub: ScrubReport,
    /// The trust audit; `None` until [`Self::attach_verify`] runs.
    pub verify: Option<VerifyReport>,
    /// Store commit attempts retried after a transient failure, summed
    /// over ranks (from [`TrackSummary::flush_retries`]). Non-zero with
    /// `degraded == false` means the retry policy absorbed real trouble.
    pub flush_retries: u64,
    /// Sender-side delivery counters, summed over ranks (all zero when the
    /// run did not stream). `unacked_batches` accounts every gap: a
    /// streamed-view consumer knows exactly how many batches only the
    /// durable stores hold.
    pub net: NetStats,
    /// The aggregator's view of a streamed run; `None` until
    /// [`Self::attach_delivery`] runs.
    pub delivery: Option<DeliveryReport>,
}

impl RunReport {
    pub fn new(world_size: u32) -> Self {
        RunReport {
            world_size,
            ..RunReport::default()
        }
    }

    /// Fold one superstep's outcomes in. Ranks already recorded as crashed
    /// keep their original crash site; survivors contribute nothing.
    pub fn record_outcomes<T>(&mut self, outcomes: &[RankOutcome<T>]) {
        for outcome in outcomes {
            if let RankOutcome::Crashed { rank, phase, cause } = outcome {
                if !self.crashed.iter().any(|c| c.rank == *rank) {
                    self.crashed.push(RankCrash {
                        rank: *rank,
                        phase: phase.clone(),
                        cause: cause.clone(),
                    });
                }
            }
        }
        self.crashed.sort_by_key(|c| c.rank);
    }

    /// Attach the post-run merge: how many sub-graphs were expected, and
    /// what the merge actually recovered.
    pub fn attach_merge(&mut self, expected_subgraphs: usize, report: &MergeReport) {
        self.expected_subgraphs = expected_subgraphs;
        self.merge = report.clone();
    }

    /// Attach a post-run `verify` pass: what the signed manifest and the
    /// campaign ledger say about the files the merge consumed.
    pub fn attach_verify(&mut self, report: &VerifyReport) {
        self.verify = Some(report.clone());
    }

    /// Attach a scrub pass: what the parity redundancy repaired before
    /// (or after) the merge, and what stayed lost. Unrecoverable *members*
    /// cost completeness — the run's artifacts are provably not all
    /// reconstructible, even if the merge salvaged their intact batches.
    /// An unusable parity file is lost redundancy, not lost data: the
    /// members themselves still verify, so it never costs completeness.
    pub fn attach_scrub(&mut self, report: &ScrubReport) {
        self.scrub = report.clone();
    }

    /// Attach per-rank tracking summaries: flush-retry counts always,
    /// plus the sender-side delivery counters when the run streamed.
    pub fn attach_summaries(&mut self, summaries: &[(u32, TrackSummary)]) {
        let sum = |field: fn(&TrackSummary) -> u64| summaries.iter().map(|(_, s)| field(s)).sum::<u64>();
        self.flush_retries = sum(|s| s.flush_retries);
        self.net = NetStats {
            sent_batches: sum(|s| s.net_sent),
            acked_batches: sum(|s| s.net_acked),
            retries: sum(|s| s.net_retries),
            shed_batches: sum(|s| s.net_shed_batches),
            shed_triples: sum(|s| s.net_shed_triples),
            unacked_batches: sum(|s| s.net_unacked),
        };
    }

    /// Attach the aggregator's view of a streamed run.
    pub fn attach_delivery(&mut self, report: &DeliveryReport) {
        self.delivery = Some(*report);
    }

    /// True when the run collected live, not just post-hoc: some rank
    /// offered a batch to the stream, or an aggregator view is attached.
    pub fn streamed(&self) -> bool {
        self.net.sent_batches > 0 || self.delivery.is_some()
    }

    /// Ranks that completed every recorded superstep.
    pub fn surviving_ranks(&self) -> Vec<u32> {
        let dead: BTreeSet<u32> = self.crashed.iter().map(|c| c.rank).collect();
        (0..self.world_size).filter(|r| !dead.contains(r)).collect()
    }

    /// Fraction of expected sub-graphs recovered, in `[0, 1]`.
    pub fn completeness(&self) -> f64 {
        let expected = self.expected_subgraphs.max(1) as f64;
        (self.merge.files as f64 / expected).min(1.0)
    }

    /// True when nothing was lost: no crashes, no unrecoverable or
    /// quarantined files, unbroken frame chains, and every expected
    /// sub-graph present.
    pub fn is_complete(&self) -> bool {
        self.crashed.is_empty()
            && self.merge.corrupt.is_empty()
            && self.merge.quarantined.is_empty()
            && self.merge.chain_breaks == 0
            && self.scrub.unrecoverable.is_empty()
            && self.merge.files >= self.expected_subgraphs
    }

    /// True when the attached verify pass vouched for the run (see
    /// [`VerifyReport::is_trusted`]). Orthogonal to [`Self::is_complete`]
    /// — damage costs completeness but not trust, and a tampered file can
    /// merge "cleanly" yet be untrusted. `false` until
    /// [`Self::attach_verify`] runs.
    pub fn is_trusted(&self) -> bool {
        self.verify.as_ref().is_some_and(VerifyReport::is_trusted)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let merge = &self.merge;
        write!(
            f,
            "run: {}/{} ranks survived; {}/{} sub-graphs recovered \
             ({:.1}% complete), {} triples merged, {} salvaged, {} replayed \
             from journals, {} files lost, {} quarantined, {} chain breaks, \
             {} journal tails truncated",
            self.surviving_ranks().len(),
            self.world_size,
            merge.files,
            self.expected_subgraphs,
            self.completeness() * 100.0,
            merge.triples,
            merge.salvaged_triples,
            merge.replayed_triples,
            merge.corrupt.len(),
            merge.quarantined.len(),
            merge.chain_breaks,
            merge.wal_tails_truncated,
        )?;
        if self.flush_retries > 0 {
            write!(f, ", {} flush retries absorbed", self.flush_retries)?;
        }
        if self.streamed() {
            let delivery = self.delivery.unwrap_or_default();
            write!(
                f,
                "; stream: {}/{} batches acked, {} retries, {} duplicates \
                 dropped, {} out of order, {} shed, {} unacked (durable \
                 store owns the gap), {} collector crash(es), {} resync(s) \
                 recovering {} triples",
                self.net.acked_batches,
                self.net.sent_batches,
                self.net.retries,
                delivery.duplicate_batches,
                delivery.out_of_order_batches,
                self.net.shed_batches,
                self.net.unacked_batches,
                delivery.crashes,
                delivery.resyncs,
                delivery.resync_triples,
            )?;
        }
        let scrub = &self.scrub;
        if !scrub.repaired_files.is_empty() || !scrub.unrecoverable.is_empty() {
            write!(
                f,
                "; scrub: {} files repaired ({} batches), {} unrecoverable",
                scrub.repaired_files.len(),
                scrub.repaired_batches,
                scrub.unrecoverable.len(),
            )?;
        }
        match &self.verify {
            None => write!(f, "; trust: unverified"),
            Some(audit) => write!(
                f,
                "; trust: {} — {} verified, {} tampered, {} missing, \
                 {} unsigned, manifest {}, ledger {}",
                if audit.is_trusted() {
                    "TRUSTED"
                } else {
                    "NOT TRUSTED"
                },
                audit.count(FileVerdict::Verified),
                audit.count(FileVerdict::Tampered),
                audit.count(FileVerdict::Missing),
                audit.count(FileVerdict::Unsigned),
                if audit.manifest_present && audit.manifest_ok {
                    "signed"
                } else {
                    "untrusted"
                },
                if audit.ledger_ok { "sealed" } else { "broken" },
            ),
        }
    }
}

/// Findings of a [`doctor`] pass over a merged graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DoctorReport {
    /// Relation edges whose endpoint GUID has no `rdf:type` — the node the
    /// edge points at (or leaves from) was never recovered.
    pub orphan_relations: Vec<String>,
    /// Activity nodes with no `prov:wasAssociatedWith` edge: an I/O API
    /// invocation that lost its responsible agent.
    pub unassociated_activities: Vec<Guid>,
    /// GUIDs carrying more than one `rdf:type` — a content-address
    /// collision or a corrupted merge.
    pub duplicate_guids: Vec<Guid>,
    /// Triples inspected.
    pub checked_triples: usize,
}

impl DoctorReport {
    pub fn is_clean(&self) -> bool {
        self.orphan_relations.is_empty()
            && self.unassociated_activities.is_empty()
            && self.duplicate_guids.is_empty()
    }

    /// Total number of findings.
    pub fn findings(&self) -> usize {
        self.orphan_relations.len() + self.unassociated_activities.len() + self.duplicate_guids.len()
    }
}

impl fmt::Display for DoctorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "doctor: {} triples checked, {} orphan relations, \
             {} unassociated activities, {} duplicate GUIDs",
            self.checked_triples,
            self.orphan_relations.len(),
            self.unassociated_activities.len(),
            self.duplicate_guids.len(),
        )
    }
}

/// Structural consistency pass over a merged provenance graph.
///
/// One linear scan collects every typed GUID and every model-relation edge
/// between GUIDs; the checks then run against those indexes. Endpoints that
/// are not run-scoped resources (e.g. class IRIs in membership triples) are
/// out of scope — the model owns their vocabulary, not the run.
pub fn doctor(graph: &Graph) -> DoctorReport {
    let mut report = DoctorReport::default();

    // subject IRI -> distinct rdf:type object IRIs
    let mut types: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    // (subject IRI, relation, object IRI) for GUID-to-GUID edges
    let mut edges: Vec<(String, Relation, String)> = Vec::new();

    for triple in graph.iter() {
        report.checked_triples += 1;
        let Some(subject_iri) = triple.subject.as_iri() else {
            continue;
        };
        if triple.predicate.as_str() == ns::RDF_TYPE {
            if let Some(obj) = triple.object.as_iri() {
                types
                    .entry(subject_iri.as_str().to_string())
                    .or_default()
                    .insert(obj.as_str().to_string());
            }
        } else if let Some(rel) = Relation::from_iri(triple.predicate.as_str()) {
            if let Some(obj) = triple.object.as_iri() {
                // Only GUID targets: membership edges point at class IRIs.
                if Guid::from_iri(obj).is_some() {
                    edges.push((
                        subject_iri.as_str().to_string(),
                        rel,
                        obj.as_str().to_string(),
                    ));
                }
            }
        }
    }

    for (subject, rel, object) in &edges {
        for endpoint in [subject, object] {
            if !types.contains_key(endpoint) {
                report.orphan_relations.push(format!(
                    "{subject} --{}--> {object}: {endpoint} has no rdf:type",
                    rel.local_name()
                ));
            }
        }
    }

    let associated: BTreeSet<&String> = edges
        .iter()
        .filter(|(_, rel, _)| *rel == Relation::WasAssociatedWith)
        .map(|(subject, _, _)| subject)
        .collect();

    for (subject, class_iris) in &types {
        if class_iris.len() > 1 {
            if let Some(guid) = Guid::from_iri(&provio_rdf::Iri::new(subject.clone())) {
                report.duplicate_guids.push(guid);
            }
        }
        let is_activity = class_iris
            .iter()
            .any(|iri| matches!(NodeClass::from_iri(iri), Some(NodeClass::Activity(_))));
        if is_activity && !associated.contains(subject) {
            if let Some(guid) = Guid::from_iri(&provio_rdf::Iri::new(subject.clone())) {
                report.unassociated_activities.push(guid);
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_model::{ActivityClass, AgentClass, EntityClass};
    use provio_rdf::{Iri, Literal, Term, Triple};

    fn guid(local: &str) -> Guid {
        Guid::from_iri(&Iri::new(format!("{}{local}", ns::RESOURCE))).unwrap()
    }

    fn typed(g: &mut Graph, node: &Guid, class: NodeClass) {
        g.insert(&Triple::new(
            node.to_subject(),
            Iri::new(ns::RDF_TYPE),
            Term::iri(class.iri()),
        ));
        g.insert(&Triple::new(
            node.to_subject(),
            Iri::new(ns::RDFS_LABEL),
            Literal::plain(node.local().to_string()),
        ));
    }

    fn related(g: &mut Graph, from: &Guid, rel: Relation, to: &Guid) {
        g.insert(&Triple::new(
            from.to_subject(),
            Iri::new(rel.iri()),
            Term::Iri(to.to_iri()),
        ));
    }

    /// A minimal healthy graph: file --wasWrittenBy--> write activity
    /// --wasAssociatedWith--> program agent.
    fn healthy_graph() -> (Graph, Guid, Guid, Guid) {
        let mut g = Graph::new();
        let file = guid("File.run.out");
        let write = guid("Write.p100.1");
        let agent = guid("Program.demo");
        typed(&mut g, &file, EntityClass::File.into());
        typed(&mut g, &write, ActivityClass::Write.into());
        typed(&mut g, &agent, AgentClass::Program.into());
        related(&mut g, &file, Relation::WasWrittenBy, &write);
        related(&mut g, &write, Relation::WasAssociatedWith, &agent);
        (g, file, write, agent)
    }

    fn merge_report(files: usize, triples: usize) -> MergeReport {
        MergeReport {
            files,
            triples,
            ..MergeReport::default()
        }
    }

    #[test]
    fn scrub_results_fold_into_completeness() {
        let mut r = RunReport::new(2);
        r.attach_merge(2, &merge_report(2, 50));
        assert!(r.is_complete());
        let mut s = ScrubReport {
            repaired_files: vec!["/p/a".into()],
            repaired_batches: 3,
            ..ScrubReport::default()
        };
        r.attach_scrub(&s);
        assert!(r.is_complete(), "repair within tolerance costs nothing: {r}");
        assert!(
            format!("{r}").contains("scrub: 1 files repaired (3 batches), 0 unrecoverable"),
            "{r}"
        );
        s.unrecoverable = vec!["/p/b".into()];
        r.attach_scrub(&s);
        assert!(!r.is_complete(), "loss beyond tolerance costs completeness: {r}");
        // An unusable parity file is lost *redundancy*, not lost data: the
        // members all still verify, so completeness survives.
        let u = ScrubReport {
            unusable_parity: vec!["/p/a.p000000.par".into()],
            ..ScrubReport::default()
        };
        r.attach_scrub(&u);
        assert!(r.scrub.unrecoverable.is_empty());
        assert!(r.is_complete(), "{r}");
    }

    #[test]
    fn integrity_damage_breaks_completeness() {
        let mut quarantined = merge_report(4, 100);
        quarantined.quarantined.push("/provio/evil.nt".into());
        let mut r = RunReport::new(4);
        r.attach_merge(4, &quarantined);
        assert_eq!(r.merge.quarantined.len(), 1);
        assert!(!r.is_complete(), "a quarantined file is lost provenance");

        let mut broken = merge_report(4, 100);
        broken.chain_breaks = 2;
        let mut r = RunReport::new(4);
        r.attach_merge(4, &broken);
        assert_eq!(r.merge.chain_breaks, 2);
        assert!(!r.is_complete(), "a chain break is lost history");
        let line = r.to_string();
        assert!(line.contains("2 chain breaks"), "display: {line}");
    }

    #[test]
    fn crashes_dedupe_by_rank_and_first_crash_wins() {
        let mut report = RunReport::new(8);
        let phase_a: Vec<RankOutcome<u32>> = (0..8)
            .map(|r| {
                if r == 3 {
                    RankOutcome::Crashed {
                        rank: 3,
                        phase: "convert".into(),
                        cause: "ESIMCRASH: disk".into(),
                    }
                } else {
                    RankOutcome::Completed(r)
                }
            })
            .collect();
        // Phase B: rank 3 "crashes" again (skipped rank re-reported) and
        // rank 6 dies for real.
        let phase_b: Vec<RankOutcome<u32>> = (0..8)
            .map(|r| match r {
                3 => RankOutcome::Crashed {
                    rank: 3,
                    phase: "reduce".into(),
                    cause: "already dead".into(),
                },
                6 => RankOutcome::Crashed {
                    rank: 6,
                    phase: "reduce".into(),
                    cause: "ESIMCRASH: node".into(),
                },
                r => RankOutcome::Completed(r),
            })
            .collect();

        report.record_outcomes(&phase_a);
        report.record_outcomes(&phase_b);

        assert_eq!(report.crashed.len(), 2);
        assert_eq!(report.crashed[0].rank, 3);
        assert_eq!(report.crashed[0].phase, "convert"); // first crash wins
        assert_eq!(report.crashed[1].rank, 6);
        assert_eq!(report.surviving_ranks(), vec![0, 1, 2, 4, 5, 7]);
    }

    #[test]
    fn completeness_joins_outcomes_with_the_merge() {
        let mut report = RunReport::new(8);
        report.record_outcomes(&[RankOutcome::<()>::Crashed {
            rank: 5,
            phase: "write".into(),
            cause: "ESIMCRASH".into(),
        }]);

        // All 7 survivor sub-graphs recovered.
        report.attach_merge(7, &merge_report(7, 420));
        assert_eq!(report.completeness(), 1.0);
        assert!(!report.is_complete()); // a rank still crashed
        assert_eq!(report.merge.triples, 420);

        // Only 6 of 8 expected recovered.
        report.attach_merge(8, &merge_report(6, 360));
        assert!((report.completeness() - 0.75).abs() < 1e-9);
        assert!(!report.is_complete());

        let clean = {
            let mut r = RunReport::new(4);
            r.attach_merge(4, &merge_report(4, 100));
            r
        };
        assert!(clean.is_complete());
        assert_eq!(clean.completeness(), 1.0);
        let line = clean.to_string();
        assert!(line.contains("4/4 sub-graphs"), "display: {line}");
    }

    #[test]
    fn journal_replay_is_reported() {
        let mut merged = merge_report(3, 100);
        merged.replayed_triples = 7;
        merged.wal_tails_truncated = 1;
        let mut r = RunReport::new(4);
        r.attach_merge(4, &merged);
        assert_eq!(r.merge.replayed_triples, 7);
        assert_eq!(r.merge.wal_tails_truncated, 1);
        let line = r.to_string();
        assert!(line.contains("7 replayed"), "display: {line}");
        assert!(line.contains("1 journal tails truncated"), "display: {line}");
    }

    #[test]
    fn flush_retries_and_delivery_are_reported() {
        let mut r = RunReport::new(2);
        r.attach_merge(2, &merge_report(2, 50));
        // No streaming, no retries: the run line stays quiet about both.
        let line = r.to_string();
        assert!(!line.contains("flush retries"), "{line}");
        assert!(!line.contains("stream:"), "{line}");

        // Summaries carrying retry + delivery counters light them up.
        let mut s = TrackSummary {
            events: 1,
            triples: 10,
            store_bytes: 100,
            store_path: "/provio/prov_p0.nt".into(),
            degraded: false,
            last_error: None,
            dropped_flushes: 0,
            shed_batches: 0,
            shed_triples: 0,
            breaker_trips: 0,
            breaker_skipped: 0,
            breaker_state: "closed".into(),
            wal_records: 10,
            wal_commits: 2,
            wal_recycles: 1,
            flush_retries: 3,
            net_sent: 5,
            net_acked: 4,
            net_retries: 7,
            net_shed_batches: 1,
            net_shed_triples: 2,
            net_unacked: 1,
        };
        let mut r2 = RunReport::new(2);
        r2.attach_merge(2, &merge_report(2, 50));
        r2.attach_summaries(&[(0, s.clone()), (1, { s.flush_retries = 1; s })]);
        assert_eq!(r2.flush_retries, 4);
        assert_eq!(r2.net.sent_batches, 10);
        assert_eq!(r2.net.unacked_batches, 2);
        assert!(r2.streamed());
        r2.attach_delivery(&DeliveryReport {
            received_batches: 12,
            duplicate_batches: 3,
            out_of_order_batches: 1,
            refused_batches: 2,
            streamed_triples: 40,
            live_triples: 50,
            crashes: 1,
            resyncs: 1,
            resync_triples: 10,
        });
        let line = r2.to_string();
        assert!(line.contains("4 flush retries absorbed"), "{line}");
        assert!(line.contains("8/10 batches acked"), "{line}");
        assert!(line.contains("3 duplicates dropped"), "{line}");
        assert!(line.contains("2 unacked"), "{line}");
        assert!(line.contains("1 collector crash(es)"), "{line}");
        assert!(line.contains("recovering 10 triples"), "{line}");
    }

    #[test]
    fn trust_joins_the_run_report_orthogonally_to_completeness() {
        use crate::verify::FileCheck;
        let check = |verdict, path: &str| FileCheck {
            path: path.into(),
            verdict,
            detail: String::new(),
        };
        // Before any verify pass: unverified, never trusted.
        let mut r = RunReport::new(2);
        r.attach_merge(2, &merge_report(2, 50));
        assert!(r.is_complete());
        assert!(!r.is_trusted());
        assert!(r.to_string().contains("trust: unverified"), "{r}");

        // A clean signed run: complete AND trusted.
        let mut v = VerifyReport {
            dir: "/provio".into(),
            run: Some(7),
            manifest_present: true,
            manifest_ok: true,
            ledger_ok: true,
            checks: vec![
                check(FileVerdict::Verified, "/provio/prov_p0.nt"),
                check(FileVerdict::Verified, "/provio/prov_p1.nt"),
            ],
        };
        r.attach_verify(&v);
        assert!(r.is_trusted() && r.is_complete());
        assert!(r.to_string().contains("trust: TRUSTED — 2 verified"), "{r}");

        // One tampered file: the merge saw nothing wrong (the forgery is
        // internally consistent), so the run stays complete — but trust is
        // gone, with file-level blast radius in the counters.
        v.checks[1] = check(FileVerdict::Tampered, "/provio/prov_p1.nt");
        r.attach_verify(&v);
        assert!(r.is_complete(), "a CRC-patched forgery merges cleanly");
        assert!(!r.is_trusted());
        let line = r.to_string();
        assert!(
            line.contains("NOT TRUSTED — 1 verified, 1 tampered"),
            "{line}"
        );

        // A legacy unsigned run: honest, but never trusted.
        let legacy = VerifyReport {
            dir: "/provio".into(),
            run: None,
            manifest_present: false,
            manifest_ok: false,
            ledger_ok: true,
            checks: vec![check(FileVerdict::Unsigned, "/provio/prov_p0.nt")],
        };
        r.attach_verify(&legacy);
        assert!(!r.is_trusted());
        let line = r.to_string();
        assert!(line.contains("1 unsigned, manifest untrusted"), "{line}");
    }

    #[test]
    fn crashes_outside_the_world_do_not_underflow_the_survivor_count() {
        let crash = |rank| RankOutcome::<()>::Crashed {
            rank,
            phase: "write".into(),
            cause: "ESIMCRASH".into(),
        };
        let mut r = RunReport::new(2);
        r.record_outcomes(&[crash(5)]);
        assert!(r.to_string().starts_with("run: 2/2 ranks survived"), "{r}");
        let mut r = RunReport::default();
        r.record_outcomes(&[crash(0)]);
        assert!(r.to_string().starts_with("run: 0/0 ranks survived"), "{r}");
    }

    #[test]
    fn doctor_passes_a_healthy_graph() {
        let (g, ..) = healthy_graph();
        let report = doctor(&g);
        assert!(report.is_clean(), "unexpected findings: {report:?}");
        assert_eq!(report.checked_triples, g.len());
        assert_eq!(report.findings(), 0);
    }

    #[test]
    fn doctor_flags_orphans_duplicates_and_lost_agents() {
        let (mut g, file, _write, _agent) = healthy_graph();

        // 1. Orphan relation: edge to a GUID that was never recovered.
        let ghost = guid("Dataset.ghost");
        related(&mut g, &file, Relation::WasReadBy, &ghost);

        // 2. Activity with no associated agent.
        let lonely = guid("Read.p200.7");
        typed(&mut g, &lonely, ActivityClass::Read.into());

        // 3. GUID resolving to two classes.
        let clash = guid("File.clash");
        typed(&mut g, &clash, EntityClass::File.into());
        typed(&mut g, &clash, EntityClass::Dataset.into());

        let report = doctor(&g);
        assert!(!report.is_clean());
        assert_eq!(report.orphan_relations.len(), 1);
        assert!(report.orphan_relations[0].contains("wasReadBy"));
        assert!(report.orphan_relations[0].contains("Dataset.ghost"));
        assert_eq!(report.unassociated_activities, vec![lonely]);
        assert_eq!(report.duplicate_guids, vec![clash]);
        assert_eq!(report.findings(), 3);
    }

    #[test]
    fn doctor_ignores_non_resource_edge_targets() {
        // Membership-style edges point at class IRIs, not GUIDs; they must
        // not be reported as orphans.
        let (mut g, _file, write, _agent) = healthy_graph();
        g.insert(&Triple::new(
            write.to_subject(),
            Iri::new(Relation::WasMemberOf.iri()),
            Term::iri(format!("{}Activity", ns::PROV)),
        ));
        assert!(doctor(&g).is_clean());
    }
}
