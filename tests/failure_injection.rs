//! Failure injection: the provenance system must degrade gracefully, never
//! corrupt workflow results, and never lose more than the affected
//! process's sub-graph.

use prov_io::core::RdfFormat;
use prov_io::hpcfs::FsError;
use prov_io::prelude::*;
use provio_simrt::SimTime;
use std::sync::Arc;

fn tracked_process(cluster: &Cluster, pid: u32) -> (Arc<FsSession>, H5) {
    let cfg = ProvIoConfig::default().shared();
    cluster.process(pid, "alice", "prog", VirtualClock::new(), Some(&cfg))
}

#[test]
fn corrupt_subgraph_does_not_block_merge() {
    let cluster = Cluster::new();
    let (_s, h5) = tracked_process(&cluster, 1);
    let f = h5.create_file("/good.h5").unwrap();
    h5.close_file(f).unwrap();
    cluster.registry.finish_all();

    // A process that died mid-serialization left garbage behind.
    let ino = cluster
        .fs
        .create_file("/provio/prov_p666.ttl", false, "provio", SimTime::ZERO)
        .unwrap();
    cluster
        .fs
        .write_at(ino, 0, b"@prefix broken <unterminated", SimTime::ZERO)
        .unwrap();
    // And another left a half-written N-Triples file.
    let ino2 = cluster
        .fs
        .create_file("/provio/prov_p667.nt", false, "provio", SimTime::ZERO)
        .unwrap();
    cluster
        .fs
        .write_at(ino2, 0, b"<urn:a> <urn:b> \"unclosed", SimTime::ZERO)
        .unwrap();

    let (graph, report) = merge_directory(&cluster.fs, "/provio");
    assert_eq!(report.corrupt.len(), 2);
    assert_eq!(report.files, 1);
    assert!(!graph.is_empty(), "healthy sub-graphs survive");
    let engine = ProvQueryEngine::new(graph);
    assert!(engine.entity_by_label("/good.h5").is_some());
}

#[test]
fn tracker_dropped_without_finish_still_persists() {
    // A process that never calls finish (crash before MPI_Finalize): the
    // store's Drop path flushes what it had.
    let cluster = Cluster::new();
    let (_s, h5) = tracked_process(&cluster, 2);
    let f = h5.create_file("/orphan.h5").unwrap();
    h5.close_file(f).unwrap();
    // Drop the tracker without finishing.
    let t = cluster.registry.unregister(2).unwrap();
    drop(t);
    let (bytes, files) = cluster.prov_usage("/provio");
    assert_eq!(files, 1);
    assert!(bytes > 0, "Drop flushed the sub-graph");
    let (graph, _) = merge_directory(&cluster.fs, "/provio");
    let engine = ProvQueryEngine::new(graph);
    assert!(engine.entity_by_label("/orphan.h5").is_some());
}

#[test]
fn everything_disabled_tracks_nothing_but_workflow_succeeds() {
    let cluster = Cluster::new();
    let cfg = ProvIoConfig::default()
        .with_selector(ClassSelector::none())
        .shared();
    let (s, h5) = cluster.process(3, "alice", "prog", VirtualClock::new(), Some(&cfg));
    let f = h5.create_file("/silent.h5").unwrap();
    let d = h5
        .write_dataset_full(f, "x", Datatype::Int64, &[4], &Data::synthetic(32))
        .unwrap();
    h5.close_dataset(d).unwrap();
    h5.close_file(f).unwrap();
    s.write_file("/also_silent", b"x").unwrap();

    let summaries = cluster.registry.finish_all();
    assert_eq!(summaries[0].1.events, 0);
    // Workflow data is intact.
    assert!(cluster.fs.exists("/silent.h5"));
    assert!(cluster.fs.exists("/also_silent"));
}

#[test]
fn failed_workflow_io_leaves_no_phantom_provenance() {
    let cluster = Cluster::new();
    let (s, h5) = tracked_process(&cluster, 4);
    // A batch of failing operations.
    assert!(h5.open_file("/missing.h5", false).is_err());
    assert!(s.open("/missing.txt", OpenFlags::rdonly()).is_err());
    assert!(s.rename("/nope", "/nowhere").is_err());
    let summaries = cluster.registry.finish_all();
    assert_eq!(summaries[0].1.events, 0, "failures leave no provenance");
}

#[test]
fn store_on_full_directory_path_conflicts_are_survivable() {
    // Another process created a FILE where the store wants its directory.
    let cluster = Cluster::new();
    cluster
        .fs
        .create_file("/provio", false, "evil", SimTime::ZERO)
        .unwrap();
    let cfg = ProvIoConfig::default().shared();
    let (_s, h5) = cluster.process(5, "alice", "prog", VirtualClock::new(), Some(&cfg));
    // Tracking proceeds; serialization fails silently at finish (the
    // workflow must not crash).
    let f = h5.create_file("/work.h5").unwrap();
    h5.close_file(f).unwrap();
    let summaries = cluster.registry.finish_all();
    assert!(summaries[0].1.events > 0);
    assert_eq!(summaries[0].1.store_bytes, 0, "store could not be written");
    assert!(cluster.fs.exists("/work.h5"), "workflow output unaffected");
}

#[test]
fn transient_store_failures_are_retried_to_full_provenance() {
    // Acceptance (a): transient write failures are retried and the full
    // provenance graph still lands on disk.
    let cluster = Cluster::new();
    let plan = FaultPlan::new(21);
    plan.add_rule(
        FaultRule::fail(FaultOp::WriteAt, FsError::Io)
            .on_path("prov_p1.ttl.tmp")
            .times(2),
    );
    cluster.fs.install_faults(Arc::clone(&plan));
    let cfg = ProvIoConfig::default()
        .with_retry(RetryPolicy {
            max_attempts: 3,
            backoff_ns: 1_000,
        })
        .shared();
    let (_s, h5) = cluster.process(1, "alice", "prog", VirtualClock::new(), Some(&cfg));
    let f = h5.create_file("/retry.h5").unwrap();
    h5.close_file(f).unwrap();
    let summaries = cluster.registry.finish_all();
    assert_eq!(plan.injected(), 2, "both transient failures were hit");
    assert!(summaries[0].1.store_bytes > 0, "third attempt committed");
    assert!(!summaries[0].1.degraded);
    assert_eq!(summaries[0].1.last_error.as_deref(), Some("EIO"));
    let (graph, report) = merge_directory(&cluster.fs, "/provio");
    assert!(report.corrupt.is_empty());
    assert_eq!(report.salvaged_triples, 0, "nothing needed salvaging");
    let engine = ProvQueryEngine::new(graph);
    assert!(engine.entity_by_label("/retry.h5").is_some(), "full provenance");
}

#[test]
fn permanent_store_failure_surfaces_degraded_state() {
    // Acceptance (b): exhausted retries flip the store to degraded with a
    // concrete last_error — a zero byte count is never silent.
    let cluster = Cluster::new();
    let plan = FaultPlan::new(22);
    plan.add_rule(FaultRule::fail(FaultOp::WriteAt, FsError::NoSpace).on_path("prov_p2.ttl.tmp"));
    cluster.fs.install_faults(plan);
    let (_s, h5) = tracked_process(&cluster, 2);
    let f = h5.create_file("/doomed.h5").unwrap();
    h5.close_file(f).unwrap();
    let summaries = cluster.registry.finish_all();
    let s = &summaries[0].1;
    assert_eq!(s.store_bytes, 0);
    assert!(s.degraded, "zero stored bytes comes with the reason attached");
    assert_eq!(s.last_error.as_deref(), Some("ENOSPC"));
    assert!(s.dropped_flushes >= 1);
    assert!(cluster.fs.exists("/doomed.h5"), "workflow output unaffected");
}

#[test]
fn crash_between_tmp_write_and_rename_preserves_previous_commit() {
    // Acceptance (c): a crash after serializing the tmp file but before
    // the atomic rename leaves the previously committed sub-graph intact —
    // the merge never reads a torn committed file.
    let cluster = Cluster::new();
    let cfg = ProvIoConfig::default()
        .with_policy(SerializationPolicy::EveryRecords(1))
        .synchronous()
        .shared();
    let (_s, h5) = cluster.process(3, "alice", "prog", VirtualClock::new(), Some(&cfg));
    let f = h5.create_file("/early.h5").unwrap();
    h5.close_file(f).unwrap();
    assert!(
        cluster.fs.exists("/provio/prov_p3.ttl"),
        "periodic flush committed an early snapshot"
    );
    let plan = FaultPlan::new(23);
    plan.add_rule(FaultRule::crash(FaultOp::Rename).on_path("prov_p3.ttl.tmp"));
    cluster.fs.install_faults(plan);
    let f2 = h5.create_file("/late.h5").unwrap();
    h5.close_file(f2).unwrap();
    let summaries = cluster.registry.finish_all();
    assert!(summaries[0].1.degraded);
    assert_eq!(summaries[0].1.last_error.as_deref(), Some("ESIMCRASH"));

    let (graph, report) = merge_directory(&cluster.fs, "/provio");
    assert!(report.corrupt.is_empty(), "no torn committed file, ever");
    assert_eq!(report.salvaged_triples, 0);
    // The snapshot plus every committed delta segment contributes; the
    // stale tmp of the crashed compaction is shadowed by the commit.
    assert!(report.files >= 1, "commit readable, stale tmp shadowed");
    assert!(report.recovered.is_empty(), "stale tmp never adopted");
    let engine = ProvQueryEngine::new(graph);
    assert!(
        engine.entity_by_label("/early.h5").is_some(),
        "previous commit readable in full"
    );
    assert!(
        engine.entity_by_label("/late.h5").is_some(),
        "records flushed as delta segments survive the crashed compaction"
    );
}

#[test]
fn torn_tmp_prefix_is_salvaged_by_merge() {
    // Acceptance (d): a crash that tears the tmp file mid-write still
    // yields the valid prefix at merge time, accounted in the report.
    let cluster = Cluster::new();
    let cfg = ProvIoConfig::default()
        .with_format(RdfFormat::NTriples)
        .shared();
    let plan = FaultPlan::new(24);
    plan.add_rule(
        FaultRule::crash(FaultOp::WriteAt)
            .on_path("prov_p4.nt.tmp")
            .torn(400),
    );
    cluster.fs.install_faults(plan);
    let (_s, h5) = cluster.process(4, "alice", "prog", VirtualClock::new(), Some(&cfg));
    let f = h5.create_file("/torn.h5").unwrap();
    h5.close_file(f).unwrap();
    let summaries = cluster.registry.finish_all();
    assert_eq!(summaries[0].1.store_bytes, 0);
    assert!(summaries[0].1.degraded);

    let (graph, report) = merge_directory(&cluster.fs, "/provio");
    assert_eq!(
        report.recovered,
        vec!["/provio/prov_p4.nt.tmp".to_string()],
        "orphan tmp adopted"
    );
    assert!(report.salvaged_triples > 0, "valid prefix recovered");
    assert!(!graph.is_empty());
}

#[test]
fn partial_subgraph_from_periodic_flush_is_usable() {
    // With the periodic policy, intermediate flushes leave a readable
    // sub-graph even before finish.
    let cluster = Cluster::new();
    let cfg = ProvIoConfig::default()
        .with_policy(SerializationPolicy::EveryRecords(2))
        .synchronous()
        .shared();
    let (_s, h5) = cluster.process(6, "alice", "prog", VirtualClock::new(), Some(&cfg));
    for i in 0..8 {
        let f = h5.create_file(&format!("/f{i}.h5")).unwrap();
        h5.close_file(f).unwrap();
    }
    // Before finish: the store already holds flushed records — a base
    // snapshot from the first flush plus delta segments from later ones.
    let (bytes, files) = cluster.prov_usage("/provio");
    assert!(files >= 2, "snapshot plus at least one delta segment");
    assert!(bytes > 0, "periodic policy persisted early");
    let (graph, report) = merge_directory(&cluster.fs, "/provio");
    assert!(report.corrupt.is_empty());
    assert!(!graph.is_empty());
    cluster.registry.finish_all();
}
